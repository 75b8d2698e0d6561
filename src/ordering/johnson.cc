#include "ordering/johnson.h"

#include <algorithm>

namespace fabricpp::ordering {

namespace {

/// Johnson's elementary-circuit search over a local (dense-index) graph.
class JohnsonEnumerator {
 public:
  JohnsonEnumerator(std::vector<std::vector<uint32_t>> local_adj,
                    std::vector<uint32_t> local_to_global, uint64_t max_cycles)
      : adj_(std::move(local_adj)),
        local_to_global_(std::move(local_to_global)),
        max_cycles_(max_cycles),
        n_(static_cast<uint32_t>(adj_.size())),
        blocked_(n_, false),
        b_lists_(n_),
        in_current_scc_(n_, false),
        index_(n_),
        lowlink_(n_),
        on_stack_(n_, false) {}

  CycleEnumeration Run() {
    // Classic Johnson outer loop: for ascending start vertex s, work on the
    // SCC (within the subgraph induced by vertices >= s) that contains the
    // least vertex; enumerate all circuits through that vertex; advance s.
    uint32_t s = 0;
    while (s < n_ && !out_.budget_exhausted) {
      const uint32_t start = LeastScc(s);
      if (start == kNone) break;
      std::fill(blocked_.begin(), blocked_.end(), false);
      for (auto& b : b_lists_) b.clear();
      Circuit(start, start);
      s = start + 1;
    }
    return std::move(out_);
  }

 private:
  static constexpr uint32_t kNone = ~0u;

  /// Finds the non-trivial SCC of the subgraph induced by {v >= s} whose
  /// least vertex is smallest, marks its members in in_current_scc_ and
  /// returns that least vertex (kNone if the subgraph is acyclic). An
  /// iterative Tarjan that skips edges into {v < s} in place and reuses its
  /// buffers across calls.
  uint32_t LeastScc(uint32_t s) {
    std::fill(index_.begin() + s, index_.end(), kNone);
    uint32_t next_index = 0;
    uint32_t best_min = kNone;
    // Roots ascend and every SCC lies within one root's search, so SCCs
    // found from later roots hold only vertices above the current root:
    // once the best least vertex is below it, nothing can beat it.
    for (uint32_t root = s; root < n_ && root < best_min; ++root) {
      if (index_[root] != kNone) continue;
      Discover(root, &next_index);
      while (!dfs_.empty()) {
        Frame& frame = dfs_.back();
        const uint32_t v = frame.node;
        if (frame.child_pos < adj_[v].size()) {
          const uint32_t w = adj_[v][frame.child_pos++];
          if (w < s) continue;
          if (index_[w] == kNone) {
            Discover(w, &next_index);
          } else if (on_stack_[w]) {
            lowlink_[v] = std::min(lowlink_[v], index_[w]);
          }
          continue;
        }
        if (lowlink_[v] == index_[v]) {
          // v roots an SCC: the stack suffix from v.
          size_t first = scc_stack_.size();
          uint32_t least = kNone;
          do {
            --first;
            on_stack_[scc_stack_[first]] = false;
            least = std::min(least, scc_stack_[first]);
          } while (scc_stack_[first] != v);
          if (scc_stack_.size() - first >= 2 && least < best_min) {
            best_min = least;
            best_.assign(scc_stack_.begin() + first, scc_stack_.end());
          }
          scc_stack_.resize(first);
        }
        dfs_.pop_back();
        if (!dfs_.empty()) {
          const uint32_t parent = dfs_.back().node;
          lowlink_[parent] = std::min(lowlink_[parent], lowlink_[v]);
        }
      }
    }
    if (best_min == kNone) return kNone;
    std::fill(in_current_scc_.begin(), in_current_scc_.end(), false);
    for (const uint32_t v : best_) in_current_scc_[v] = true;
    return best_min;
  }

  void Discover(uint32_t v, uint32_t* next_index) {
    index_[v] = lowlink_[v] = (*next_index)++;
    scc_stack_.push_back(v);
    on_stack_[v] = true;
    dfs_.push_back(Frame{v, 0});
  }

  bool Circuit(uint32_t v, uint32_t start) {
    if (out_.budget_exhausted) return false;
    bool found = false;
    stack_.push_back(v);
    blocked_[v] = true;
    for (const uint32_t w : adj_[v]) {
      if (!in_current_scc_[w] || w < start) continue;
      if (w == start) {
        EmitCycle();
        found = true;
        if (out_.cycles.size() >= max_cycles_) {
          out_.budget_exhausted = true;
          break;
        }
      } else if (!blocked_[w]) {
        if (Circuit(w, start)) found = true;
        if (out_.budget_exhausted) break;
      }
    }
    if (found) {
      Unblock(v);
    } else {
      // B(w) may hold v more than once; Unblock skips vertices that are
      // already unblocked, so duplicates cost a check, never a wrong result.
      for (const uint32_t w : adj_[v]) {
        if (!in_current_scc_[w] || w < start) continue;
        b_lists_[w].push_back(v);
      }
    }
    stack_.pop_back();
    return found;
  }

  void Unblock(uint32_t v) {
    // v is unblocked first, so no recursive call reaches B(v) while it is
    // being walked; clearing keeps its capacity for the next fill.
    blocked_[v] = false;
    for (const uint32_t w : b_lists_[v]) {
      if (blocked_[w]) Unblock(w);
    }
    b_lists_[v].clear();
  }

  void EmitCycle() {
    std::vector<uint32_t> cycle;
    cycle.reserve(stack_.size());
    for (const uint32_t v : stack_) cycle.push_back(local_to_global_[v]);
    // The stack starts at the smallest vertex of the SCC search, so the
    // cycle is already rotated to its smallest local id.
    out_.cycles.push_back(std::move(cycle));
  }

  struct Frame {
    uint32_t node;
    size_t child_pos;
  };

  std::vector<std::vector<uint32_t>> adj_;
  std::vector<uint32_t> local_to_global_;
  uint64_t max_cycles_;
  uint32_t n_;
  std::vector<bool> blocked_;
  std::vector<std::vector<uint32_t>> b_lists_;
  std::vector<bool> in_current_scc_;
  std::vector<uint32_t> stack_;
  CycleEnumeration out_;
  // LeastScc's Tarjan state, reused across start vertices.
  std::vector<uint32_t> index_;
  std::vector<uint32_t> lowlink_;
  std::vector<bool> on_stack_;
  std::vector<uint32_t> scc_stack_;
  std::vector<Frame> dfs_;
  std::vector<uint32_t> best_;
};

}  // namespace

CycleEnumeration FindElementaryCycles(
    const std::vector<std::vector<uint32_t>>& adjacency,
    const std::vector<uint32_t>& nodes, uint64_t max_cycles) {
  // Re-index the SCC's nodes densely.
  std::vector<uint32_t> sorted_nodes = nodes;
  std::sort(sorted_nodes.begin(), sorted_nodes.end());
  std::vector<uint32_t> global_to_local(
      sorted_nodes.empty() ? 0 : sorted_nodes.back() + 1, ~0u);
  for (uint32_t i = 0; i < sorted_nodes.size(); ++i) {
    global_to_local[sorted_nodes[i]] = i;
  }
  std::vector<std::vector<uint32_t>> local_adj(sorted_nodes.size());
  for (uint32_t i = 0; i < sorted_nodes.size(); ++i) {
    for (const uint32_t w : adjacency[sorted_nodes[i]]) {
      if (w < global_to_local.size() && global_to_local[w] != ~0u) {
        local_adj[i].push_back(global_to_local[w]);
      }
    }
    std::sort(local_adj[i].begin(), local_adj[i].end());
  }
  JohnsonEnumerator enumerator(std::move(local_adj), std::move(sorted_nodes),
                               max_cycles);
  return enumerator.Run();
}

}  // namespace fabricpp::ordering
