#ifndef FABRICPP_ORDERING_CONFLICT_GRAPH_H_
#define FABRICPP_ORDERING_CONFLICT_GRAPH_H_

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "proto/rwset.h"

namespace fabricpp::ordering {

/// Assigns a dense index to every distinct key in a batch, in first-seen
/// order. Interns by std::string_view over the caller's key storage — the
/// batch's read/write sets own their key strings and outlive the graph
/// build, so no per-key copies or allocations beyond the hash table are
/// made (the seed version keyed the map by std::string, copying every key).
class KeyDictionary {
 public:
  /// Returns the key's dense id, assigning the next one on first sight.
  /// The view must stay valid for the dictionary's lifetime.
  uint32_t Intern(std::string_view key) {
    const auto [it, inserted] =
        index_.emplace(key, static_cast<uint32_t>(index_.size()));
    (void)inserted;
    return it->second;
  }

  size_t size() const { return index_.size(); }

 private:
  std::unordered_map<std::string_view, uint32_t> index_;
};

/// Read-write conflict graph of a batch of transactions (paper §5.1
/// step 1 / Figure 3).
///
/// Nodes are batch positions 0..n-1. There is an edge i -> j iff
/// transaction i *writes* a key that transaction j *reads* (i != j). In the
/// paper's notation this is the conflict Ti ⤳ Tj, which forces Tj to be
/// ordered *before* Ti in a serializable schedule (the reader must commit
/// before the writer invalidates its read). Following the paper's Figure 5
/// traversal we call i the *parent* (writer) and j the *child* (reader).
///
/// Construction uses a per-key inverted index (writers x readers) instead
/// of the paper's n^2 bit-vector intersection: identical output, but the
/// cost scales with the number of actual conflicts rather than always
/// quadratically. A bit-vector build is kept for differential testing
/// (BuildDense) and matches the paper's Table 3 description.
class ConflictGraph {
 public:
  /// Builds the graph from the batch's read/write sets (not owned; they
  /// must outlive the call — key interning borrows their storage).
  static ConflictGraph Build(
      const std::vector<const proto::ReadWriteSet*>& rwsets);

  /// Reference n^2 bit-vector construction (paper §5.1 step 1).
  static ConflictGraph BuildDense(
      const std::vector<const proto::ReadWriteSet*>& rwsets);

  size_t num_nodes() const { return children_.size(); }
  size_t num_edges() const { return num_edges_; }
  size_t num_unique_keys() const { return num_unique_keys_; }

  /// Outgoing edges of node i (readers of keys i writes), ascending.
  const std::vector<uint32_t>& Children(uint32_t i) const {
    return children_[i];
  }
  /// Incoming edges of node i (writers of keys i reads), ascending.
  const std::vector<uint32_t>& Parents(uint32_t i) const {
    return parents_[i];
  }

  bool HasEdge(uint32_t from, uint32_t to) const;

 private:
  ConflictGraph() = default;
  /// Sorts and dedups each child list, counts edges, derives parents.
  void Finalize();

  std::vector<std::vector<uint32_t>> children_;
  std::vector<std::vector<uint32_t>> parents_;
  size_t num_edges_ = 0;
  size_t num_unique_keys_ = 0;
};

}  // namespace fabricpp::ordering

#endif  // FABRICPP_ORDERING_CONFLICT_GRAPH_H_
