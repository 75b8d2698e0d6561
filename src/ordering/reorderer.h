#ifndef FABRICPP_ORDERING_REORDERER_H_
#define FABRICPP_ORDERING_REORDERER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ordering/conflict_graph.h"
#include "proto/rwset.h"

namespace fabricpp::ordering {

/// Tuning knobs for the reordering mechanism.
struct ReorderConfig {
  /// Johnson enumeration budget per round. The paper bounds reordering cost
  /// through the unique-keys batch-cutting condition (§5.1.2); the budget is
  /// our additional safety net for adversarially dense conflict graphs —
  /// when it trips, the reorderer breaks the cycles found so far and
  /// re-enumerates (see ReorderStats::rounds). The reorderer is a stage of
  /// the ordering pipeline, so the budget directly bounds per-block latency;
  /// the default keeps worst-case hot-key blocks in the low hundreds of
  /// milliseconds (the regime of the paper's Figure 16 timings).
  ///
  /// The budget is partitioned across a round's non-trivial SCCs *up front*
  /// (proportional to SCC size, largest first, at least one per SCC while
  /// any budget remains), so each SCC's enumeration depends only on its own
  /// share — see DESIGN.md §10.
  uint64_t max_cycles_per_round = 2048;
  /// Hard cap on break-and-re-enumerate rounds; beyond it the reorderer
  /// falls back to degree-based SCC shattering, which is abort-heavier but
  /// near-linear.
  uint32_t max_rounds = 4;
};

/// Statistics of one reordering run. Every field is a *deterministic*
/// function of the input batch — pure counts of the algorithm's work, never
/// host time — so the stats may feed virtual-time cost models and
/// byte-identical determinism fingerprints. Wall-clock measurement of the
/// pass lives in ReorderResult::elapsed_wall_us / stage_wall instead.
struct ReorderStats {
  size_t num_transactions = 0;
  size_t num_edges = 0;
  size_t num_unique_keys = 0;
  size_t num_nontrivial_sccs = 0;
  size_t num_cycles_found = 0;
  uint32_t rounds = 1;
  bool fallback_used = false;

  /// Deterministic one-line rendering (determinism tests fingerprint it).
  std::string ToString() const;
};

/// Host wall-clock of one reordering pass, broken down by stage. Like
/// ReorderResult::elapsed_wall_us these are real measurements: they vary
/// run-to-run and must never feed virtual time or the deterministic stats
/// (Metrics accumulates them on its wall-clock side; the micro benches
/// report them per stage).
struct ReorderStageWallClock {
  uint64_t build_us = 0;      ///< Conflict-graph construction (step 1).
  uint64_t enumerate_us = 0;  ///< SCC decomposition + cycle enumeration.
  uint64_t break_us = 0;      ///< Greedy cycle breaking (+ shatter fallback).
  uint64_t schedule_us = 0;   ///< Acyclic schedule generation (step 5).
};

/// Output of the reorderer.
struct ReorderResult {
  /// Serializable schedule: positions into the input batch, in final commit
  /// order. For every remaining conflict "i writes a key j reads", j comes
  /// before i.
  std::vector<uint32_t> order;
  /// Input positions aborted to break conflict cycles (paper step 4); the
  /// orderer drops these from the block and they count as
  /// kAbortedByReorderer.
  std::vector<uint32_t> aborted;
  ReorderStats stats;
  /// Host (real) microseconds spent reordering — what the Appendix B
  /// micro-benchmarks plot. A measurement, not simulation state: it varies
  /// run-to-run and must never feed virtual time or the deterministic
  /// stats/report (Metrics keeps it on the wall-clock side, like the
  /// validator's stage timings).
  uint64_t elapsed_wall_us = 0;
  /// Per-stage split of elapsed_wall_us (same measurement-only contract).
  ReorderStageWallClock stage_wall;
};

/// The Fabric++ transaction reordering mechanism (paper §5.1, Algorithm 1):
///
///   (1) build the conflict graph of the batch,
///   (2) Tarjan-decompose it into strongly connected subgraphs and
///       enumerate each subgraph's elementary cycles with Johnson,
///   (3) count, per transaction, the number of cycles it participates in,
///   (4) greedily abort the transaction in the most cycles (smallest batch
///       position on ties — the paper's determinism rule) until no cycle
///       remains,
///   (5) emit a serializable schedule of the survivors via the paper's
///       parent-chasing source traversal, inverted.
///
/// The pass runs serially on the calling thread, as in the paper's
/// ordering service (see DESIGN.md §10).
///
/// The returned schedule is asserted against the paper's worked example
/// (Table 3 -> T5, T1, T3, T4) in tests/ordering_test.cc.
ReorderResult ReorderTransactions(
    const std::vector<const proto::ReadWriteSet*>& rwsets,
    const ReorderConfig& config = {});

/// Step 5 in isolation: builds a serializable schedule for an *acyclic*
/// conflict graph restricted to `alive` (batch positions, sorted ascending).
/// Exposed for unit testing and for the micro-benchmarks.
///
/// Runs in O(V + E): the paper's parent-chasing traversal re-scanned every
/// visited node's parent list from the front, which degenerates to O(V^2)
/// on hot-reader graphs (one transaction reading n keys written by n
/// writers); per-node monotonic scan positions over the parent/child lists
/// skip the already-scheduled prefix instead, provably picking the same
/// neighbor (tests/ordering_test.cc cross-checks against the quadratic
/// reference).
std::vector<uint32_t> ScheduleAcyclic(const ConflictGraph& graph,
                                      const std::vector<uint32_t>& alive);

}  // namespace fabricpp::ordering

#endif  // FABRICPP_ORDERING_REORDERER_H_
