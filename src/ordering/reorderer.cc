#include "ordering/reorderer.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <queue>

#include "ordering/alive_graph.h"
#include "ordering/johnson.h"
#include "ordering/tarjan.h"

namespace fabricpp::ordering {

namespace {

uint64_t MicrosSince(std::chrono::steady_clock::time_point* mark) {
  const auto now = std::chrono::steady_clock::now();
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(now - *mark)
          .count();
  *mark = now;
  return static_cast<uint64_t>(us);
}

/// Splits the round's cycle budget across its non-trivial SCCs up front:
/// proportional to SCC size, allocated largest-SCC-first (ties to the one
/// with the smallest member), at least one cycle per SCC while budget
/// remains, leftover to the largest. The shares decide which cycles a
/// budget-limited round finds, so they are part of the ReorderResult
/// contract: each SCC's enumeration depends only on its own share, never
/// on how many cycles the SCCs before it happened to find.
std::vector<uint64_t> PartitionCycleBudget(
    const std::vector<std::vector<uint32_t>>& sccs, uint64_t budget) {
  std::vector<uint64_t> share(sccs.size(), 0);
  if (sccs.empty() || budget == 0) return share;
  // Keep the proportional arithmetic overflow-free for any config value;
  // 2^32 cycles per round is far beyond any practical budget.
  budget = std::min<uint64_t>(budget, uint64_t{1} << 32);

  std::vector<uint32_t> by_size(sccs.size());
  std::iota(by_size.begin(), by_size.end(), 0);
  std::sort(by_size.begin(), by_size.end(), [&](uint32_t a, uint32_t b) {
    if (sccs[a].size() != sccs[b].size()) {
      return sccs[a].size() > sccs[b].size();
    }
    return sccs[a].front() < sccs[b].front();
  });

  size_t total_nodes = 0;
  for (const auto& scc : sccs) total_nodes += scc.size();

  uint64_t remaining = budget;
  for (const uint32_t idx : by_size) {
    if (remaining == 0) break;
    uint64_t s = budget * sccs[idx].size() / total_nodes;
    if (s == 0) s = 1;
    s = std::min(s, remaining);
    share[idx] = s;
    remaining -= s;
  }
  share[by_size.front()] += remaining;
  return share;
}

/// Steps 3+4 of Algorithm 1: greedily removes the transaction occurring in
/// the most (enumerated) cycles until every enumerated cycle is broken.
/// Ties go to the smallest batch position ("the one with the smaller
/// subscript"), keeping the algorithm deterministic. Victims are killed in
/// the alive graph (pruning their edges incrementally) and appended to
/// `aborted`.
void BreakCycles(const std::vector<std::vector<uint32_t>>& cycles,
                 AliveGraph* ag, std::vector<uint32_t>* aborted) {
  const size_t n = ag->num_nodes();
  std::vector<uint32_t> count(n, 0);
  for (const auto& cycle : cycles) {
    for (const uint32_t tx : cycle) ++count[tx];
  }
  // tx -> the cycles through it, flattened: cycles_of[first[tx]..first[tx+1]).
  std::vector<uint32_t> first(n + 1, 0);
  for (size_t tx = 0; tx < n; ++tx) first[tx + 1] = first[tx] + count[tx];
  std::vector<uint32_t> cycles_of(first[n]);
  std::vector<uint32_t> cursor(first.begin(), first.end() - 1);
  for (uint32_t c = 0; c < cycles.size(); ++c) {
    for (const uint32_t tx : cycles[c]) cycles_of[cursor[tx]++] = c;
  }

  // Max-heap keyed by (count desc, index asc), one entry per tx. Counts only
  // fall, so an entry's key bounds its tx's current count from above: a
  // popped entry whose count moved is re-pushed with the current one, and
  // the first up-to-date entry popped is the true maximum.
  using Entry = std::pair<uint32_t, uint32_t>;  // (count, tx)
  auto cmp = [](const Entry& a, const Entry& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;  // Smaller index pops first on equal count.
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> heap(cmp);
  for (uint32_t tx = 0; tx < n; ++tx) {
    if (count[tx] > 0) heap.push({count[tx], tx});
  }

  std::vector<bool> cycle_open(cycles.size(), true);
  size_t open_cycles = cycles.size();

  while (open_cycles > 0 && !heap.empty()) {
    const auto [heap_count, tx] = heap.top();
    heap.pop();
    if (count[tx] == 0) continue;
    if (heap_count != count[tx]) {
      heap.push({count[tx], tx});
      continue;
    }
    // Abort tx: every open cycle through it is now broken.
    ag->Kill(tx);
    aborted->push_back(tx);
    for (uint32_t i = first[tx]; i < first[tx + 1]; ++i) {
      const uint32_t c = cycles_of[i];
      if (!cycle_open[c]) continue;
      cycle_open[c] = false;
      --open_cycles;
      for (const uint32_t member : cycles[c]) {
        if (count[member] > 0) --count[member];
      }
    }
    count[tx] = 0;
  }
}

/// Last-resort fallback for adversarial graphs: repeatedly removes the
/// highest-degree decile of every remaining non-trivial SCC until the graph
/// is acyclic. Aborts more transactions than the cycle-count heuristic but
/// runs in near-linear time per round (degrees come straight off the
/// incrementally maintained alive graph).
void ShatterSccs(AliveGraph* ag, std::vector<uint32_t>* aborted) {
  while (true) {
    const auto sccs = ag->NontrivialSccs();
    if (sccs.empty()) return;
    for (const auto& scc : sccs) {
      // Degree within the alive subgraph.
      std::vector<std::pair<size_t, uint32_t>> degree;  // (degree, node)
      degree.reserve(scc.size());
      for (const uint32_t v : scc) {
        degree.push_back({ag->OutDegree(v) + ag->InDegree(v), v});
      }
      std::sort(degree.begin(), degree.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;
      });
      const size_t to_remove = std::max<size_t>(1, scc.size() / 10);
      for (size_t i = 0; i < to_remove && i < degree.size(); ++i) {
        const uint32_t victim = degree[i].second;
        ag->Kill(victim);
        aborted->push_back(victim);
      }
    }
  }
}

}  // namespace

std::vector<uint32_t> ScheduleAcyclic(const ConflictGraph& graph,
                                      const std::vector<uint32_t>& alive) {
  // Step 5 of Algorithm 1: repeatedly chase parent pointers upward to a
  // source (a transaction none of whose alive, unscheduled parents remain),
  // schedule it, then walk back down through its children. The accumulated
  // order is inverted at the end, so sources — transactions that overwrite
  // others' reads — commit last.
  //
  // Each node keeps a monotonic scan position into its parent and child
  // lists: entries behind the position were seen to be dead or already
  // scheduled, and both conditions are permanent, so no revisit ever has to
  // rescan them. The first eligible neighbor from the position is therefore
  // the same node the paper's full front-to-back rescan would pick, and the
  // whole traversal amortizes to O(V + E) instead of the rescan's
  // worst-case O(V^2) (hot-reader graphs; see bench_reorder_micro).
  const size_t n = graph.num_nodes();
  std::vector<bool> in_alive(n, false);
  for (const uint32_t v : alive) in_alive[v] = true;
  std::vector<bool> scheduled(n, false);
  std::vector<uint32_t> parent_pos(n, 0);
  std::vector<uint32_t> child_pos(n, 0);

  std::vector<uint32_t> order;
  order.reserve(alive.size());
  if (alive.empty()) return order;

  // getNextNode(): the smallest-position alive transaction not yet
  // scheduled (the paper starts at "the node representing the transaction
  // with the smallest subscript").
  size_t scan = 0;  // Index into `alive` (which is kept sorted by caller).
  auto next_node = [&]() -> uint32_t {
    while (scan < alive.size() && scheduled[alive[scan]]) ++scan;
    return alive[scan];
  };

  uint32_t start_node = next_node();
  while (order.size() < alive.size()) {
    if (scheduled[start_node]) {
      start_node = next_node();
      continue;
    }
    const uint32_t node = start_node;
    bool add_node = true;
    // Traverse upwards to find a source. The position is not advanced past
    // an eligible parent: it stays eligible until scheduled, after which
    // the revisit skips it.
    const std::vector<uint32_t>& parents = graph.Parents(node);
    for (uint32_t& pp = parent_pos[node]; pp < parents.size(); ++pp) {
      const uint32_t parent = parents[pp];
      if (in_alive[parent] && !scheduled[parent]) {
        start_node = parent;
        add_node = false;
        break;
      }
    }
    if (add_node) {
      scheduled[node] = true;
      order.push_back(node);
      // A source has been scheduled; traverse downwards.
      const std::vector<uint32_t>& children = graph.Children(node);
      for (uint32_t& cp = child_pos[node]; cp < children.size(); ++cp) {
        const uint32_t child = children[cp];
        if (in_alive[child] && !scheduled[child]) {
          start_node = child;
          break;
        }
      }
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

ReorderResult ReorderTransactions(
    const std::vector<const proto::ReadWriteSet*>& rwsets,
    const ReorderConfig& config) {
  const auto t0 = std::chrono::steady_clock::now();
  auto mark = t0;
  ReorderResult result;
  const size_t n = rwsets.size();
  result.stats.num_transactions = n;

  // Step 1: conflict graph.
  const ConflictGraph graph = ConflictGraph::Build(rwsets);
  result.stats.num_edges = graph.num_edges();
  result.stats.num_unique_keys = graph.num_unique_keys();
  result.stage_wall.build_us += MicrosSince(&mark);

  AliveGraph ag(graph);

  // Steps 2-4, iterated: enumerate cycles (budgeted), break them, and loop
  // until the alive subgraph is acyclic.
  for (uint32_t round = 1;; ++round) {
    result.stats.rounds = round;
    const auto sccs = ag.NontrivialSccs();
    if (round == 1) result.stats.num_nontrivial_sccs = sccs.size();
    if (sccs.empty()) {
      result.stage_wall.enumerate_us += MicrosSince(&mark);
      break;  // Acyclic — proceed to scheduling.
    }

    if (round > config.max_rounds) {
      result.stage_wall.enumerate_us += MicrosSince(&mark);
      ShatterSccs(&ag, &result.aborted);
      result.stats.fallback_used = true;
      result.stage_wall.break_us += MicrosSince(&mark);
      break;
    }

    // Step 2: elementary cycles of every strongly connected subgraph, each
    // enumerated against its own share of the round budget and joined in
    // SCC order.
    const std::vector<uint64_t> share =
        PartitionCycleBudget(sccs, config.max_cycles_per_round);
    std::vector<std::vector<uint32_t>> cycles;
    for (size_t i = 0; i < sccs.size(); ++i) {
      if (share[i] == 0) continue;
      CycleEnumeration enumeration =
          FindElementaryCycles(ag.adjacency(), sccs[i], share[i]);
      for (auto& c : enumeration.cycles) cycles.push_back(std::move(c));
    }
    result.stats.num_cycles_found += cycles.size();
    result.stage_wall.enumerate_us += MicrosSince(&mark);

    // Steps 3+4: greedy cycle cover removal.
    BreakCycles(cycles, &ag, &result.aborted);
    result.stage_wall.break_us += MicrosSince(&mark);
    // If enumeration was complete, the next round's SCC pass will find the
    // graph acyclic and exit; if the budget tripped, it re-enumerates.
  }

  // Step 5: serializable schedule of the survivors.
  std::vector<uint32_t> alive_list;
  alive_list.reserve(ag.num_alive());
  for (uint32_t i = 0; i < n; ++i) {
    if (ag.IsAlive(i)) alive_list.push_back(i);
  }
  result.order = ScheduleAcyclic(graph, alive_list);
  std::sort(result.aborted.begin(), result.aborted.end());
  result.stage_wall.schedule_us += MicrosSince(&mark);

  result.elapsed_wall_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return result;
}

std::string ReorderStats::ToString() const {
  return "reorder{txs=" + std::to_string(num_transactions) +
         " edges=" + std::to_string(num_edges) +
         " unique_keys=" + std::to_string(num_unique_keys) +
         " sccs=" + std::to_string(num_nontrivial_sccs) +
         " cycles=" + std::to_string(num_cycles_found) +
         " rounds=" + std::to_string(rounds) +
         " fallback=" + (fallback_used ? "1" : "0") + "}";
}

}  // namespace fabricpp::ordering
