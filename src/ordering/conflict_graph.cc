#include "ordering/conflict_graph.h"

#include <algorithm>

namespace fabricpp::ordering {

void ConflictGraph::Finalize() {
  num_edges_ = 0;
  for (auto& c : children_) {
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
    num_edges_ += c.size();
  }
  parents_.assign(children_.size(), {});
  for (uint32_t i = 0; i < children_.size(); ++i) {
    for (const uint32_t j : children_[i]) parents_[j].push_back(i);
  }
  // Parents come out sorted because children are visited in ascending i.
}

ConflictGraph ConflictGraph::Build(
    const std::vector<const proto::ReadWriteSet*>& rwsets) {
  ConflictGraph g;
  const uint32_t n = static_cast<uint32_t>(rwsets.size());
  g.children_.assign(n, {});

  // Inverted index: key id -> the transactions reading / writing it, each
  // list ascending because transactions are scanned in batch order.
  KeyDictionary dict;
  std::vector<std::vector<uint32_t>> readers;
  std::vector<std::vector<uint32_t>> writers;
  auto ensure = [&](uint32_t key_id) {
    if (key_id >= readers.size()) {
      readers.resize(key_id + 1);
      writers.resize(key_id + 1);
    }
  };
  for (uint32_t i = 0; i < n; ++i) {
    for (const proto::ReadItem& r : rwsets[i]->reads) {
      const uint32_t k = dict.Intern(r.key);
      ensure(k);
      readers[k].push_back(i);
    }
    for (const proto::WriteItem& w : rwsets[i]->writes) {
      const uint32_t k = dict.Intern(w.key);
      ensure(k);
      writers[k].push_back(i);
    }
  }
  g.num_unique_keys_ = dict.size();

  for (uint32_t k = 0; k < readers.size(); ++k) {
    if (readers[k].empty() || writers[k].empty()) continue;
    for (const uint32_t w : writers[k]) {
      for (const uint32_t r : readers[k]) {
        if (w != r) g.children_[w].push_back(r);
      }
    }
  }
  g.Finalize();
  return g;
}

ConflictGraph ConflictGraph::BuildDense(
    const std::vector<const proto::ReadWriteSet*>& rwsets) {
  ConflictGraph g;
  const uint32_t n = static_cast<uint32_t>(rwsets.size());
  g.children_.assign(n, {});

  KeyDictionary dict;
  // Bit-vectors vec_r(Ti) / vec_w(Ti) over the unique keys, as in the
  // paper's Table 3.
  std::vector<std::vector<uint64_t>> read_bits(n);
  std::vector<std::vector<uint64_t>> write_bits(n);
  auto set_bit = [](std::vector<uint64_t>& bits, uint32_t k) {
    const size_t word = k / 64;
    if (word >= bits.size()) bits.resize(word + 1, 0);
    bits[word] |= (1ULL << (k % 64));
  };
  for (uint32_t i = 0; i < n; ++i) {
    for (const proto::ReadItem& r : rwsets[i]->reads) {
      set_bit(read_bits[i], dict.Intern(r.key));
    }
    for (const proto::WriteItem& w : rwsets[i]->writes) {
      set_bit(write_bits[i], dict.Intern(w.key));
    }
  }
  g.num_unique_keys_ = dict.size();

  auto intersects = [](const std::vector<uint64_t>& a,
                       const std::vector<uint64_t>& b) {
    const size_t words = std::min(a.size(), b.size());
    for (size_t w = 0; w < words; ++w) {
      if ((a[w] & b[w]) != 0) return true;
    }
    return false;
  };

  // Edge i -> j iff vec_w(Ti) & vec_r(Tj) != 0 (paper step 1).
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (intersects(write_bits[i], read_bits[j])) g.children_[i].push_back(j);
    }
  }
  g.Finalize();
  return g;
}

bool ConflictGraph::HasEdge(uint32_t from, uint32_t to) const {
  const auto& c = children_[from];
  return std::binary_search(c.begin(), c.end(), to);
}

}  // namespace fabricpp::ordering
