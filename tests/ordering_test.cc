// Tests for src/ordering — the paper's core contribution. Includes the
// worked examples of Tables 1-3 asserted exactly, plus randomized property
// tests on the reorderer's invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <queue>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/rng.h"
#include "common/strings.h"
#include "ordering/alive_graph.h"
#include "ordering/batch_cutter.h"
#include "ordering/conflict_graph.h"
#include "ordering/early_abort.h"
#include "ordering/johnson.h"
#include "ordering/reorderer.h"
#include "ordering/tarjan.h"
#include "peer/validator.h"
#include "workload/micro_sequences.h"

namespace fabricpp::ordering {
namespace {

using workload::AsPointers;
using workload::MakeCycleSequence;
using workload::MakeShiftedReadWriteSequence;
using workload::PaperTable1Transactions;
using workload::PaperTable3Transactions;

std::vector<proto::ReadWriteSet> RandomBatch(Rng& rng, uint32_t n,
                                             uint32_t num_keys,
                                             uint32_t reads_per_tx,
                                             uint32_t writes_per_tx) {
  std::vector<proto::ReadWriteSet> sets(n);
  for (auto& set : sets) {
    for (uint32_t i = 0; i < reads_per_tx; ++i) {
      set.reads.push_back(
          {StrFormat("k%llu",
                     static_cast<unsigned long long>(rng.NextUint64(num_keys))),
           proto::kNilVersion});
    }
    for (uint32_t i = 0; i < writes_per_tx; ++i) {
      set.writes.push_back(
          {StrFormat("k%llu",
                     static_cast<unsigned long long>(rng.NextUint64(num_keys))),
           "v", false});
    }
  }
  return sets;
}

// --- ConflictGraph ---

TEST(ConflictGraphTest, PaperTable3Edges) {
  const auto txs = PaperTable3Transactions();
  const ConflictGraph g = ConflictGraph::Build(AsPointers(txs));
  ASSERT_EQ(g.num_nodes(), 6u);
  EXPECT_EQ(g.num_unique_keys(), 10u);
  // Figure 3's conflict graph (edge i->j: Ti writes a key Tj reads).
  EXPECT_TRUE(g.HasEdge(0, 3));   // T0 writes K2, T3 reads K2.
  EXPECT_TRUE(g.HasEdge(3, 0));   // T3 writes K1, T0 reads K1.
  EXPECT_TRUE(g.HasEdge(1, 0));   // T1 writes K0, T0 reads K0.
  EXPECT_TRUE(g.HasEdge(3, 1));   // T3 writes K4, T1 reads K4.
  EXPECT_TRUE(g.HasEdge(4, 1));   // T4 writes K5, T1 reads K5.
  EXPECT_TRUE(g.HasEdge(2, 1));   // T2 writes K3, T1 reads K3.
  EXPECT_TRUE(g.HasEdge(4, 2));   // T4 writes K6, T2 reads K6.
  EXPECT_TRUE(g.HasEdge(5, 2));   // T5 writes K7, T2 reads K7.
  EXPECT_TRUE(g.HasEdge(4, 3));   // T4 writes K8, T3 reads K8.
  EXPECT_TRUE(g.HasEdge(2, 4));   // T2 writes K9, T4 reads K9.
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(5, 0));
}

TEST(ConflictGraphTest, NoSelfEdges) {
  proto::ReadWriteSet set;
  set.reads = {{"k", proto::kNilVersion}};
  set.writes = {{"k", "v", false}};
  const ConflictGraph g = ConflictGraph::Build({&set});
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(ConflictGraphTest, ParentsMirrorChildren) {
  Rng rng(3);
  const auto sets = RandomBatch(rng, 50, 30, 3, 2);
  const ConflictGraph g = ConflictGraph::Build(AsPointers(sets));
  for (uint32_t i = 0; i < g.num_nodes(); ++i) {
    for (const uint32_t j : g.Children(i)) {
      const auto& parents = g.Parents(j);
      EXPECT_TRUE(std::find(parents.begin(), parents.end(), i) !=
                  parents.end());
    }
  }
}

TEST(ConflictGraphTest, SparseMatchesDenseConstruction) {
  // The inverted-index build must produce exactly the paper's n^2
  // bit-vector graph.
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const auto sets = RandomBatch(rng, 40, 20, 4, 2);
    const ConflictGraph sparse = ConflictGraph::Build(AsPointers(sets));
    const ConflictGraph dense = ConflictGraph::BuildDense(AsPointers(sets));
    ASSERT_EQ(sparse.num_edges(), dense.num_edges()) << "trial " << trial;
    for (uint32_t i = 0; i < sparse.num_nodes(); ++i) {
      EXPECT_EQ(sparse.Children(i), dense.Children(i))
          << "trial " << trial << " node " << i;
    }
  }
}

TEST(ConflictGraphTest, EmptyBatch) {
  const ConflictGraph g = ConflictGraph::Build({});
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

// --- Tarjan ---

TEST(TarjanTest, PaperTable3Sccs) {
  // Figure 4: {T0, T1, T3} (green), {T2, T4} (red), {T5} (yellow).
  const auto txs = PaperTable3Transactions();
  const ConflictGraph g = ConflictGraph::Build(AsPointers(txs));
  const auto sccs = StronglyConnectedComponents(
      6, [&](uint32_t v) -> const std::vector<uint32_t>& {
        return g.Children(v);
      });
  std::set<std::vector<uint32_t>> as_set(sccs.begin(), sccs.end());
  EXPECT_TRUE(as_set.count({0, 1, 3}));
  EXPECT_TRUE(as_set.count({2, 4}));
  EXPECT_TRUE(as_set.count({5}));
  EXPECT_EQ(sccs.size(), 3u);
}

TEST(TarjanTest, ChainHasOnlySingletons) {
  const std::vector<std::vector<uint32_t>> adj = {{1}, {2}, {3}, {}};
  const auto sccs = StronglyConnectedComponents(
      4, [&](uint32_t v) -> const std::vector<uint32_t>& { return adj[v]; });
  EXPECT_EQ(sccs.size(), 4u);
  for (const auto& scc : sccs) EXPECT_EQ(scc.size(), 1u);
}

TEST(TarjanTest, FullCycleIsOneComponent) {
  const std::vector<std::vector<uint32_t>> adj = {{1}, {2}, {0}};
  const auto sccs = StronglyConnectedComponents(
      3, [&](uint32_t v) -> const std::vector<uint32_t>& { return adj[v]; });
  ASSERT_EQ(sccs.size(), 1u);
  EXPECT_EQ(sccs[0], (std::vector<uint32_t>{0, 1, 2}));
}

TEST(TarjanTest, HandlesLargeChainIteratively) {
  // 100k-node chain would overflow a recursive implementation.
  constexpr uint32_t kN = 100000;
  std::vector<std::vector<uint32_t>> adj(kN);
  for (uint32_t i = 0; i + 1 < kN; ++i) adj[i].push_back(i + 1);
  const auto sccs = StronglyConnectedComponents(
      kN, [&](uint32_t v) -> const std::vector<uint32_t>& { return adj[v]; });
  EXPECT_EQ(sccs.size(), kN);
}

// --- Johnson ---

TEST(JohnsonTest, PaperTable3Cycles) {
  // The paper finds c1 = T0->T3->T0, c2 = T0->T3->T1->T0 in the first
  // subgraph and c3 = T2->T4->T2 in the second.
  const auto txs = PaperTable3Transactions();
  const ConflictGraph g = ConflictGraph::Build(AsPointers(txs));
  std::vector<std::vector<uint32_t>> adj(g.num_nodes());
  for (uint32_t i = 0; i < g.num_nodes(); ++i) adj[i] = g.Children(i);

  const auto green = FindElementaryCycles(adj, {0, 1, 3}, 1000);
  EXPECT_FALSE(green.budget_exhausted);
  ASSERT_EQ(green.cycles.size(), 2u);

  const auto red = FindElementaryCycles(adj, {2, 4}, 1000);
  ASSERT_EQ(red.cycles.size(), 1u);
  EXPECT_EQ(red.cycles[0], (std::vector<uint32_t>{2, 4}));
}

TEST(JohnsonTest, CompleteGraphCycleCount) {
  // K4 (complete digraph on 4 nodes) has 20 elementary cycles.
  std::vector<std::vector<uint32_t>> adj(4);
  for (uint32_t i = 0; i < 4; ++i) {
    for (uint32_t j = 0; j < 4; ++j) {
      if (i != j) adj[i].push_back(j);
    }
  }
  const auto result = FindElementaryCycles(adj, {0, 1, 2, 3}, 1000);
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_EQ(result.cycles.size(), 20u);
}

TEST(JohnsonTest, BudgetStopsEnumeration) {
  std::vector<std::vector<uint32_t>> adj(6);
  for (uint32_t i = 0; i < 6; ++i) {
    for (uint32_t j = 0; j < 6; ++j) {
      if (i != j) adj[i].push_back(j);
    }
  }
  const auto result = FindElementaryCycles(adj, {0, 1, 2, 3, 4, 5}, 10);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_EQ(result.cycles.size(), 10u);
}

TEST(JohnsonTest, AcyclicGraphHasNoCycles) {
  const std::vector<std::vector<uint32_t>> adj = {{1, 2}, {2}, {}};
  const auto result = FindElementaryCycles(adj, {0, 1, 2}, 100);
  EXPECT_TRUE(result.cycles.empty());
}

TEST(JohnsonTest, CyclesAreElementary) {
  Rng rng(17);
  const auto sets = RandomBatch(rng, 30, 10, 2, 2);
  const ConflictGraph g = ConflictGraph::Build(AsPointers(sets));
  std::vector<std::vector<uint32_t>> adj(g.num_nodes());
  for (uint32_t i = 0; i < g.num_nodes(); ++i) adj[i] = g.Children(i);
  std::vector<uint32_t> all_nodes(g.num_nodes());
  for (uint32_t i = 0; i < g.num_nodes(); ++i) all_nodes[i] = i;
  const auto result = FindElementaryCycles(adj, all_nodes, 5000);
  for (const auto& cycle : result.cycles) {
    // No repeated node within one cycle.
    std::set<uint32_t> unique(cycle.begin(), cycle.end());
    EXPECT_EQ(unique.size(), cycle.size());
    // Every consecutive pair (and the wrap-around) must be a real edge.
    for (size_t i = 0; i < cycle.size(); ++i) {
      const uint32_t from = cycle[i];
      const uint32_t to = cycle[(i + 1) % cycle.size()];
      EXPECT_TRUE(g.HasEdge(from, to))
          << "missing edge " << from << "->" << to;
    }
  }
}

// --- Reorderer: paper examples ---

TEST(ReordererTest, PaperWorkedExampleTable3) {
  // §5.1.1: T0 and T2 are aborted; the final schedule is
  // T5 => T1 => T3 => T4 (Algorithm 1, steps 1-5).
  const auto txs = PaperTable3Transactions();
  const ReorderResult result = ReorderTransactions(AsPointers(txs));
  EXPECT_EQ(result.aborted, (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(result.order, (std::vector<uint32_t>{5, 1, 3, 4}));
  EXPECT_EQ(result.stats.num_transactions, 6u);
  EXPECT_EQ(result.stats.num_nontrivial_sccs, 2u);
  EXPECT_EQ(result.stats.num_cycles_found, 3u);
  EXPECT_FALSE(result.stats.fallback_used);
}

TEST(ReordererTest, PaperTable1BecomesConflictFree) {
  // Table 1: arrival order T1 => T2 => T3 => T4 commits only T1. Table 2:
  // there is an order in which all four commit; the reorderer must find
  // one (readers of k1 before its writer).
  const auto txs = PaperTable1Transactions();
  const auto rwsets = AsPointers(txs);

  const std::vector<uint32_t> arrival = {0, 1, 2, 3};
  EXPECT_EQ(peer::CountValidUnderCommonSnapshot(rwsets, arrival), 1u);

  const ReorderResult result = ReorderTransactions(rwsets);
  EXPECT_TRUE(result.aborted.empty());
  EXPECT_EQ(result.order.size(), 4u);
  EXPECT_EQ(peer::CountValidUnderCommonSnapshot(rwsets, result.order), 4u);
  // T1 (index 0) writes k1 that everyone reads: it must come last.
  EXPECT_EQ(result.order.back(), 0u);
}

TEST(ReordererTest, EmptyAndTrivialBatches) {
  EXPECT_TRUE(ReorderTransactions({}).order.empty());
  proto::ReadWriteSet single;
  single.writes = {{"k", "v", false}};
  const ReorderResult result = ReorderTransactions({&single});
  EXPECT_EQ(result.order, (std::vector<uint32_t>{0}));
  EXPECT_TRUE(result.aborted.empty());
}

TEST(ReordererTest, NoConflictsPreservesAllTransactions) {
  std::vector<proto::ReadWriteSet> sets(10);
  for (int i = 0; i < 10; ++i) {
    sets[i].writes = {{StrFormat("k%d", i), "v", false}};
  }
  const ReorderResult result = ReorderTransactions(AsPointers(sets));
  EXPECT_TRUE(result.aborted.empty());
  EXPECT_EQ(result.order.size(), 10u);
}

TEST(ReordererTest, TwoCycleAbortsExactlyOne) {
  // Ti reads a writes b; Tj reads b writes a: irreducible 2-cycle.
  std::vector<proto::ReadWriteSet> sets(2);
  sets[0].reads = {{"a", proto::kNilVersion}};
  sets[0].writes = {{"b", "v", false}};
  sets[1].reads = {{"b", proto::kNilVersion}};
  sets[1].writes = {{"a", "v", false}};
  const ReorderResult result = ReorderTransactions(AsPointers(sets));
  EXPECT_EQ(result.aborted.size(), 1u);
  EXPECT_EQ(result.order.size(), 1u);
  // Deterministic tie-break: smallest index aborted.
  EXPECT_EQ(result.aborted[0], 0u);
}

// --- Reorderer: properties ---

TEST(ReordererTest, ScheduleIsAlwaysSerializable) {
  // Core invariant: under a common snapshot, every scheduled transaction
  // commits — the schedule has no internal read-write conflicts.
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const uint32_t n = 20 + static_cast<uint32_t>(rng.NextUint64(80));
    const uint32_t keys = 5 + static_cast<uint32_t>(rng.NextUint64(40));
    const auto sets = RandomBatch(rng, n, keys, 3, 2);
    const auto rwsets = AsPointers(sets);
    const ReorderResult result = ReorderTransactions(rwsets);
    EXPECT_EQ(peer::CountValidUnderCommonSnapshot(rwsets, result.order),
              result.order.size())
        << "trial " << trial;
  }
}

TEST(ReordererTest, OrderAndAbortedPartitionTheBatch) {
  Rng rng(123);
  for (int trial = 0; trial < 30; ++trial) {
    const auto sets = RandomBatch(rng, 60, 15, 2, 2);
    const ReorderResult result = ReorderTransactions(AsPointers(sets));
    std::set<uint32_t> seen;
    for (const uint32_t i : result.order) EXPECT_TRUE(seen.insert(i).second);
    for (const uint32_t i : result.aborted) {
      EXPECT_TRUE(seen.insert(i).second);
    }
    EXPECT_EQ(seen.size(), sets.size());
  }
}

TEST(ReordererTest, DeterministicAcrossCalls) {
  Rng rng(5);
  const auto sets = RandomBatch(rng, 100, 20, 3, 3);
  const ReorderResult a = ReorderTransactions(AsPointers(sets));
  const ReorderResult b = ReorderTransactions(AsPointers(sets));
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.aborted, b.aborted);
}

TEST(ReordererTest, ReorderingNeverHurtsVersusArrivalOrder) {
  Rng rng(321);
  for (int trial = 0; trial < 20; ++trial) {
    const auto sets = RandomBatch(rng, 64, 24, 2, 2);
    const auto rwsets = AsPointers(sets);
    std::vector<uint32_t> arrival(sets.size());
    for (uint32_t i = 0; i < sets.size(); ++i) arrival[i] = i;
    const uint32_t arrival_valid =
        peer::CountValidUnderCommonSnapshot(rwsets, arrival);
    const ReorderResult result = ReorderTransactions(rwsets);
    EXPECT_GE(result.order.size(), arrival_valid) << "trial " << trial;
  }
}

TEST(ReordererTest, DenseHotBatchSurvivesWithFallback) {
  // Adversarial: everyone reads and writes within 4 hot keys. The budget
  // must trip, the fallback must run, and the result must stay valid.
  Rng rng(777);
  const auto sets = RandomBatch(rng, 128, 4, 2, 2);
  const auto rwsets = AsPointers(sets);
  ReorderConfig config;
  config.max_cycles_per_round = 100;
  config.max_rounds = 2;
  const ReorderResult result = ReorderTransactions(rwsets, config);
  EXPECT_EQ(result.order.size() + result.aborted.size(), sets.size());
  EXPECT_FALSE(result.order.empty());
  EXPECT_EQ(peer::CountValidUnderCommonSnapshot(rwsets, result.order),
            result.order.size());
}

TEST(ReordererTest, MicroShiftedSequenceFullyValid) {
  // Appendix B.1 / Figure 15: reordering rescues all 1024 transactions for
  // every shift, while under the arrival order every reader that follows
  // its writer is invalid — valid = 512 + shift (the paper's rising line).
  for (const uint32_t shift : {0u, 64u, 256u, 512u}) {
    const auto sets = MakeShiftedReadWriteSequence(1024, shift);
    const auto rwsets = AsPointers(sets);
    std::vector<uint32_t> arrival(sets.size());
    for (uint32_t i = 0; i < sets.size(); ++i) arrival[i] = i;
    EXPECT_EQ(peer::CountValidUnderCommonSnapshot(rwsets, arrival),
              512u + shift)
        << "shift " << shift;
    const ReorderResult result = ReorderTransactions(rwsets);
    EXPECT_TRUE(result.aborted.empty()) << "shift " << shift;
    EXPECT_EQ(result.order.size(), 1024u);
  }
}

TEST(ReordererTest, MicroCycleSequenceMatchesAppendixB2) {
  // Appendix B.2 / Figure 16: the arrival order commits exactly half; the
  // reorderer aborts ~one transaction per cycle.
  for (const uint32_t cycle_len : {2u, 4u, 8u, 64u}) {
    const uint32_t n = 512;
    const auto sets = MakeCycleSequence(n, cycle_len);
    const auto rwsets = AsPointers(sets);
    std::vector<uint32_t> arrival(sets.size());
    for (uint32_t i = 0; i < sets.size(); ++i) arrival[i] = i;
    EXPECT_EQ(peer::CountValidUnderCommonSnapshot(rwsets, arrival), n / 2)
        << "cycle_len " << cycle_len;
    const ReorderResult result = ReorderTransactions(rwsets);
    EXPECT_EQ(result.order.size(), n - n / cycle_len)
        << "cycle_len " << cycle_len;
  }
}

// --- ScheduleAcyclic in isolation ---

TEST(ScheduleAcyclicTest, RespectsSubsetRestriction) {
  const auto txs = PaperTable3Transactions();
  const ConflictGraph g = ConflictGraph::Build(AsPointers(txs));
  const std::vector<uint32_t> alive = {1, 3, 4, 5};
  const auto order = ScheduleAcyclic(g, alive);
  EXPECT_EQ(order, (std::vector<uint32_t>{5, 1, 3, 4}));
}

// --- BatchCutter ---

proto::Transaction TxWithKeys(const std::string& read_key,
                              const std::string& write_key) {
  proto::Transaction tx;
  tx.rwset.reads = {{read_key, proto::kNilVersion}};
  tx.rwset.writes = {{write_key, "v", false}};
  return tx;
}

TEST(BatchCutterTest, CutsOnTransactionCount) {
  BatchCutConfig config;
  config.max_transactions = 3;
  BatchCutter cutter(config);
  EXPECT_FALSE(cutter.Add(TxWithKeys("a", "b")).has_value());
  EXPECT_FALSE(cutter.Add(TxWithKeys("c", "d")).has_value());
  const auto batch = cutter.Add(TxWithKeys("e", "f"));
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->reason, CutReason::kTransactionCount);
  EXPECT_EQ(batch->transactions.size(), 3u);
  EXPECT_EQ(cutter.pending_transactions(), 0u);
}

TEST(BatchCutterTest, CutsOnBytes) {
  BatchCutConfig config;
  config.max_transactions = 1000;
  config.max_bytes = 200;
  BatchCutter cutter(config);
  std::optional<Batch> batch;
  int added = 0;
  while (!batch.has_value() && added < 100) {
    batch = cutter.Add(TxWithKeys("key_" + std::to_string(added), "w"));
    ++added;
  }
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->reason, CutReason::kBytes);
}

TEST(BatchCutterTest, CutsOnUniqueKeys) {
  // Condition (d) — the Fabric++ extension (§5.1.2).
  BatchCutConfig config;
  config.max_transactions = 1000;
  config.max_unique_keys = 4;
  BatchCutter cutter(config);
  EXPECT_FALSE(cutter.Add(TxWithKeys("a", "b")).has_value());
  EXPECT_EQ(cutter.pending_unique_keys(), 2u);
  const auto batch = cutter.Add(TxWithKeys("c", "d"));
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->reason, CutReason::kUniqueKeys);
}

TEST(BatchCutterTest, UniqueKeysDisabledInVanilla) {
  BatchCutConfig config;
  config.max_transactions = 1000;
  config.max_unique_keys = 0;
  BatchCutter cutter(config);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(cutter
                     .Add(TxWithKeys(StrFormat("r%d", i), StrFormat("w%d", i)))
                     .has_value());
  }
}

TEST(BatchCutterTest, DuplicateKeysCountOnce) {
  BatchCutConfig config;
  config.max_unique_keys = 3;
  BatchCutter cutter(config);
  EXPECT_FALSE(cutter.Add(TxWithKeys("a", "a")).has_value());
  EXPECT_EQ(cutter.pending_unique_keys(), 1u);
  EXPECT_FALSE(cutter.Add(TxWithKeys("a", "b")).has_value());
  EXPECT_EQ(cutter.pending_unique_keys(), 2u);
}

TEST(BatchCutterTest, FlushEmptyReturnsNothing) {
  BatchCutter cutter(BatchCutConfig{});
  EXPECT_FALSE(cutter.Flush().has_value());
}

TEST(BatchCutterTest, FlushReturnsTimeoutReason) {
  BatchCutter cutter(BatchCutConfig{});
  (void)cutter.Add(TxWithKeys("a", "b"));
  const auto batch = cutter.Flush();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->reason, CutReason::kTimeout);
  EXPECT_EQ(batch->transactions.size(), 1u);
  EXPECT_EQ(cutter.pending_bytes(), 0u);
  EXPECT_EQ(cutter.pending_unique_keys(), 0u);
}

// --- Within-block version-skew early abort (§5.2.2) ---

TEST(EarlyAbortTest, OlderVersionLoses) {
  // The paper's corrected example: T6 read k at v1, T7 read k at v2 — the
  // *older* reader (T6) aborts.
  std::vector<proto::ReadWriteSet> sets(2);
  sets[0].reads = {{"k", proto::Version{1, 0}}};  // T6.
  sets[1].reads = {{"k", proto::Version{2, 0}}};  // T7.
  const auto aborts = FindVersionSkewAborts(AsPointers(sets));
  EXPECT_EQ(aborts, (std::vector<uint32_t>{0}));
}

TEST(EarlyAbortTest, EqualVersionsNoAbort) {
  std::vector<proto::ReadWriteSet> sets(3);
  for (auto& set : sets) set.reads = {{"k", proto::Version{4, 2}}};
  EXPECT_TRUE(FindVersionSkewAborts(AsPointers(sets)).empty());
}

TEST(EarlyAbortTest, TxNumBreaksTies) {
  std::vector<proto::ReadWriteSet> sets(2);
  sets[0].reads = {{"k", proto::Version{3, 1}}};
  sets[1].reads = {{"k", proto::Version{3, 4}}};
  const auto aborts = FindVersionSkewAborts(AsPointers(sets));
  EXPECT_EQ(aborts, (std::vector<uint32_t>{0}));
}

TEST(EarlyAbortTest, MultipleKeysAnyStaleKills) {
  std::vector<proto::ReadWriteSet> sets(2);
  sets[0].reads = {{"a", proto::Version{5, 0}}, {"b", proto::Version{1, 0}}};
  sets[1].reads = {{"b", proto::Version{2, 0}}};
  const auto aborts = FindVersionSkewAborts(AsPointers(sets));
  EXPECT_EQ(aborts, (std::vector<uint32_t>{0}));
}

TEST(EarlyAbortTest, DisjointKeysNoAborts) {
  std::vector<proto::ReadWriteSet> sets(4);
  for (int i = 0; i < 4; ++i) {
    sets[i].reads = {{StrFormat("k%d", i),
                      proto::Version{static_cast<uint64_t>(i), 0}}};
  }
  EXPECT_TRUE(FindVersionSkewAborts(AsPointers(sets)).empty());
}

TEST(EarlyAbortTest, CutReasonNames) {
  EXPECT_EQ(CutReasonToString(CutReason::kTransactionCount),
            "TRANSACTION_COUNT");
  EXPECT_EQ(CutReasonToString(CutReason::kUniqueKeys), "UNIQUE_KEYS");
}

// --- AliveGraph (incremental alive-subgraph maintenance) ---

/// Reference implementation: the full rebuild AliveGraph replaced.
std::vector<std::vector<uint32_t>> FilteredAdjacency(
    const ConflictGraph& graph, const std::vector<bool>& alive) {
  std::vector<std::vector<uint32_t>> adj(graph.num_nodes());
  for (uint32_t i = 0; i < graph.num_nodes(); ++i) {
    if (!alive[i]) continue;
    for (const uint32_t j : graph.Children(i)) {
      if (alive[j]) adj[i].push_back(j);
    }
  }
  return adj;
}

TEST(AliveGraphTest, KillPrunesEdgesAndDegreesIncrementally) {
  const auto txs = PaperTable3Transactions();
  const ConflictGraph graph = ConflictGraph::Build(AsPointers(txs));
  AliveGraph ag(graph);
  EXPECT_EQ(ag.num_alive(), 6u);
  for (uint32_t v = 0; v < graph.num_nodes(); ++v) {
    EXPECT_EQ(ag.OutDegree(v), graph.Children(v).size()) << v;
    EXPECT_EQ(ag.InDegree(v), graph.Parents(v).size()) << v;
  }

  std::vector<bool> alive(graph.num_nodes(), true);
  for (const uint32_t victim : {2u, 0u}) {
    ag.Kill(victim);
    alive[victim] = false;
    EXPECT_FALSE(ag.IsAlive(victim));
    EXPECT_EQ(ag.OutDegree(victim), 0u);
    EXPECT_EQ(ag.InDegree(victim), 0u);
    const auto want = FilteredAdjacency(graph, alive);
    for (uint32_t v = 0; v < graph.num_nodes(); ++v) {
      std::vector<uint32_t> got = ag.Children(v);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want[v]) << "node " << v << " after killing " << victim;
      EXPECT_EQ(ag.OutDegree(v), want[v].size()) << v;
    }
  }
  EXPECT_EQ(ag.num_alive(), 4u);
  ag.Kill(2);  // Killing a dead node is a no-op.
  EXPECT_EQ(ag.num_alive(), 4u);
}

TEST(AliveGraphTest, NontrivialSccsMatchFullRebuildUnderRandomKills) {
  Rng rng(0x5eed);
  for (int trial = 0; trial < 20; ++trial) {
    const auto sets = RandomBatch(rng, 60, 12, 2, 2);
    const ConflictGraph graph = ConflictGraph::Build(AsPointers(sets));
    AliveGraph ag(graph);
    std::vector<bool> alive(graph.num_nodes(), true);
    for (int kills = 0; kills < 25; ++kills) {
      const uint32_t victim =
          static_cast<uint32_t>(rng.NextUint64(graph.num_nodes()));
      ag.Kill(victim);
      alive[victim] = false;
    }
    // SCCs of the incrementally maintained subgraph must equal those of a
    // from-scratch filtered rebuild (Tarjan's sorted-output contract makes
    // both directly comparable even though adjacency orders differ).
    const auto adj = FilteredAdjacency(graph, alive);
    const auto full = StronglyConnectedComponents(
        static_cast<uint32_t>(adj.size()),
        [&](uint32_t v) -> const std::vector<uint32_t>& { return adj[v]; });
    std::vector<std::vector<uint32_t>> want;
    for (const auto& scc : full) {
      if (scc.size() > 1) want.push_back(scc);
    }
    EXPECT_EQ(ag.NontrivialSccs(), want) << "trial " << trial;
  }
}

// --- ScheduleAcyclic: monotonic-position traversal vs the paper's rescan ---

/// The seed's quadratic reference: parent/child scans restart from the
/// front on every visit. The shipping implementation must pick identical
/// nodes (its scan positions only skip permanently ineligible entries).
std::vector<uint32_t> ScheduleAcyclicReference(
    const ConflictGraph& graph, const std::vector<uint32_t>& alive) {
  const size_t n = graph.num_nodes();
  std::vector<bool> in_alive(n, false);
  for (const uint32_t v : alive) in_alive[v] = true;
  std::vector<bool> scheduled(n, false);
  std::vector<uint32_t> order;
  order.reserve(alive.size());
  if (alive.empty()) return order;
  size_t scan = 0;
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
    bool add_node = true;
    for (const uint32_t parent : graph.Parents(start_node)) {
      if (in_alive[parent] && !scheduled[parent]) {
        start_node = parent;
        add_node = false;
        break;
      }
    }
    if (add_node) {
      scheduled[start_node] = true;
      order.push_back(start_node);
      for (const uint32_t child : graph.Children(start_node)) {
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

/// Acyclic graphs where the reference is quadratic: the *first*
/// transaction reads every key the n-1 writers write, so the traversal
/// starting there re-scans its n-1 parents on each return to the start.
std::vector<proto::ReadWriteSet> HotReaderBatch(uint32_t n) {
  std::vector<proto::ReadWriteSet> sets(n);
  for (uint32_t i = 1; i < n; ++i) {
    sets[i].writes.push_back({StrFormat("k%u", i), "v", false});
    sets[0].reads.push_back({StrFormat("k%u", i), proto::kNilVersion});
  }
  return sets;
}

/// tx i reads k_{i-1} and writes k_i: one dependency chain of length n.
std::vector<proto::ReadWriteSet> ChainBatch(uint32_t n) {
  std::vector<proto::ReadWriteSet> sets(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (i > 0) {
      sets[i].reads.push_back({StrFormat("k%u", i - 1), proto::kNilVersion});
    }
    sets[i].writes.push_back({StrFormat("k%u", i), "v", false});
  }
  return sets;
}

TEST(ScheduleAcyclicTest, MatchesQuadraticReferenceOnStructuredGraphs) {
  for (const uint32_t n : {2u, 17u, 256u}) {
    for (const bool hot : {false, true}) {
      const auto sets = hot ? HotReaderBatch(n) : ChainBatch(n);
      const ConflictGraph graph = ConflictGraph::Build(AsPointers(sets));
      std::vector<uint32_t> alive(n);
      for (uint32_t i = 0; i < n; ++i) alive[i] = i;
      EXPECT_EQ(ScheduleAcyclic(graph, alive),
                ScheduleAcyclicReference(graph, alive))
          << (hot ? "hot-reader" : "chain") << " n=" << n;
    }
  }
}

TEST(ScheduleAcyclicTest, MatchesQuadraticReferenceOnRandomDags) {
  Rng rng(0xacdc);
  for (int trial = 0; trial < 30; ++trial) {
    // Forward-only conflicts (writer after its readers) make the graph
    // acyclic by construction; then restrict to a random alive subset.
    const uint32_t n = 40 + static_cast<uint32_t>(rng.NextUint64(40));
    std::vector<proto::ReadWriteSet> sets(n);
    for (uint32_t i = 0; i < n; ++i) {
      if (i > 0 && rng.NextUint64(3) != 0) {
        sets[i].writes.push_back(
            {StrFormat("k%llu",
                       static_cast<unsigned long long>(rng.NextUint64(i))),
             "v", false});
      }
      sets[i].reads.push_back({StrFormat("k%u", i), proto::kNilVersion});
    }
    const ConflictGraph graph = ConflictGraph::Build(AsPointers(sets));
    std::vector<uint32_t> alive;
    for (uint32_t i = 0; i < n; ++i) {
      if (rng.NextUint64(4) != 0) alive.push_back(i);
    }
    EXPECT_EQ(ScheduleAcyclic(graph, alive),
              ScheduleAcyclicReference(graph, alive))
        << "trial " << trial;
  }
}


// --- Reorder hot spots: the pre-optimization search and cycle breaking ---
//
// Verbatim copies of the Johnson search (per-start filtered-adjacency
// Tarjan, hash-set B lists) and the greedy BreakCycles (push on every
// decrement, per-tx cycle vectors) that the shipping code replaced, plus
// the unchanged budget partition and shatter fallback they run beside. The
// rewrite must reproduce their ReorderResult exactly.

class ReferenceJohnsonEnumerator {
 public:
  ReferenceJohnsonEnumerator(std::vector<std::vector<uint32_t>> local_adj,
                             std::vector<uint32_t> local_to_global,
                             uint64_t max_cycles)
      : adj_(std::move(local_adj)),
        local_to_global_(std::move(local_to_global)),
        max_cycles_(max_cycles),
        n_(static_cast<uint32_t>(adj_.size())),
        blocked_(n_, false),
        b_sets_(n_) {}

  CycleEnumeration Run() {
    uint32_t s = 0;
    while (s < n_ && !out_.budget_exhausted) {
      const auto scc = LeastScc(s);
      if (scc.empty()) break;
      const uint32_t start = *std::min_element(scc.begin(), scc.end());
      in_current_scc_.assign(n_, false);
      for (const uint32_t v : scc) in_current_scc_[v] = true;
      std::fill(blocked_.begin(), blocked_.end(), false);
      for (auto& b : b_sets_) b.clear();
      s = start;
      Circuit(start, start);
      ++s;
    }
    return std::move(out_);
  }

 private:
  std::vector<uint32_t> LeastScc(uint32_t s) {
    std::vector<std::vector<uint32_t>> filtered(n_);
    for (uint32_t v = s; v < n_; ++v) {
      for (const uint32_t w : adj_[v]) {
        if (w >= s) filtered[v].push_back(w);
      }
    }
    const auto sccs = StronglyConnectedComponents(
        n_, [&](uint32_t v) -> const std::vector<uint32_t>& {
          return filtered[v];
        });
    std::vector<uint32_t> best;
    uint32_t best_min = ~0u;
    for (const auto& comp : sccs) {
      if (comp.size() < 2) continue;
      if (comp.front() < s) continue;
      if (comp.front() < best_min) {
        best_min = comp.front();
        best = comp;
      }
    }
    return best;
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
      for (const uint32_t w : adj_[v]) {
        if (!in_current_scc_[w] || w < start) continue;
        b_sets_[w].insert(v);
      }
    }
    stack_.pop_back();
    return found;
  }

  void Unblock(uint32_t v) {
    blocked_[v] = false;
    auto pending = std::move(b_sets_[v]);
    b_sets_[v].clear();
    for (const uint32_t w : pending) {
      if (blocked_[w]) Unblock(w);
    }
  }

  void EmitCycle() {
    std::vector<uint32_t> cycle;
    cycle.reserve(stack_.size());
    for (const uint32_t v : stack_) cycle.push_back(local_to_global_[v]);
    out_.cycles.push_back(std::move(cycle));
  }

  std::vector<std::vector<uint32_t>> adj_;
  std::vector<uint32_t> local_to_global_;
  uint64_t max_cycles_;
  uint32_t n_;
  std::vector<bool> blocked_;
  std::vector<std::unordered_set<uint32_t>> b_sets_;
  std::vector<bool> in_current_scc_;
  std::vector<uint32_t> stack_;
  CycleEnumeration out_;
};

CycleEnumeration ReferenceFindElementaryCycles(
    const std::vector<std::vector<uint32_t>>& adjacency,
    const std::vector<uint32_t>& nodes, uint64_t max_cycles) {
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
  ReferenceJohnsonEnumerator enumerator(std::move(local_adj),
                                        std::move(sorted_nodes), max_cycles);
  return enumerator.Run();
}

void ReferenceBreakCycles(const std::vector<std::vector<uint32_t>>& cycles,
                          AliveGraph* ag, std::vector<uint32_t>* aborted) {
  const size_t n = ag->num_nodes();
  std::vector<uint32_t> count(n, 0);
  std::vector<std::vector<uint32_t>> tx_to_cycles(n);
  for (uint32_t c = 0; c < cycles.size(); ++c) {
    for (const uint32_t tx : cycles[c]) {
      ++count[tx];
      tx_to_cycles[tx].push_back(c);
    }
  }
  using Entry = std::pair<uint32_t, uint32_t>;
  auto cmp = [](const Entry& a, const Entry& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;
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
    if (heap_count != count[tx] || count[tx] == 0) continue;
    ag->Kill(tx);
    aborted->push_back(tx);
    for (const uint32_t c : tx_to_cycles[tx]) {
      if (!cycle_open[c]) continue;
      cycle_open[c] = false;
      --open_cycles;
      for (const uint32_t member : cycles[c]) {
        if (count[member] > 0) {
          --count[member];
          if (member != tx && count[member] > 0) {
            heap.push({count[member], member});
          }
        }
      }
    }
    count[tx] = 0;
  }
}

std::vector<uint64_t> ReferencePartitionCycleBudget(
    const std::vector<std::vector<uint32_t>>& sccs, uint64_t budget) {
  std::vector<uint64_t> share(sccs.size(), 0);
  if (sccs.empty() || budget == 0) return share;
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

void ReferenceShatterSccs(AliveGraph* ag, std::vector<uint32_t>* aborted) {
  while (true) {
    const auto sccs = ag->NontrivialSccs();
    if (sccs.empty()) return;
    for (const auto& scc : sccs) {
      std::vector<std::pair<size_t, uint32_t>> degree;
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

/// ReorderTransactions' serial loop over the reference stages.
ReorderResult ReferenceReorder(
    const std::vector<const proto::ReadWriteSet*>& rwsets,
    const ReorderConfig& config) {
  ReorderResult result;
  const size_t n = rwsets.size();
  result.stats.num_transactions = n;
  const ConflictGraph graph = ConflictGraph::Build(rwsets);
  result.stats.num_edges = graph.num_edges();
  result.stats.num_unique_keys = graph.num_unique_keys();
  AliveGraph ag(graph);
  for (uint32_t round = 1;; ++round) {
    result.stats.rounds = round;
    const auto sccs = ag.NontrivialSccs();
    if (round == 1) result.stats.num_nontrivial_sccs = sccs.size();
    if (sccs.empty()) break;
    if (round > config.max_rounds) {
      ReferenceShatterSccs(&ag, &result.aborted);
      result.stats.fallback_used = true;
      break;
    }
    const std::vector<uint64_t> share =
        ReferencePartitionCycleBudget(sccs, config.max_cycles_per_round);
    std::vector<std::vector<uint32_t>> cycles;
    for (size_t i = 0; i < sccs.size(); ++i) {
      if (share[i] == 0) continue;
      auto enumeration =
          ReferenceFindElementaryCycles(ag.adjacency(), sccs[i], share[i]);
      for (auto& c : enumeration.cycles) cycles.push_back(std::move(c));
    }
    result.stats.num_cycles_found += cycles.size();
    ReferenceBreakCycles(cycles, &ag, &result.aborted);
  }
  std::vector<uint32_t> alive_list;
  for (uint32_t i = 0; i < n; ++i) {
    if (ag.IsAlive(i)) alive_list.push_back(i);
  }
  result.order = ScheduleAcyclic(graph, alive_list);
  std::sort(result.aborted.begin(), result.aborted.end());
  return result;
}

TEST(JohnsonTest, MatchesReferenceSearchOnRandomGraphs) {
  Rng rng(0x10b5);
  for (int trial = 0; trial < 40; ++trial) {
    const uint32_t n = 8 + static_cast<uint32_t>(rng.NextUint64(40));
    const uint32_t keys = 4 + static_cast<uint32_t>(rng.NextUint64(24));
    const auto sets = RandomBatch(rng, n, keys, 2, 2);
    const ConflictGraph g = ConflictGraph::Build(AsPointers(sets));
    std::vector<std::vector<uint32_t>> adj(g.num_nodes());
    std::vector<uint32_t> nodes;
    for (uint32_t i = 0; i < g.num_nodes(); ++i) {
      adj[i] = g.Children(i);
      if (rng.NextUint64(5) != 0) nodes.push_back(i);
    }
    for (const uint64_t budget : {7u, 300u, 5000u}) {
      const auto got = FindElementaryCycles(adj, nodes, budget);
      const auto want = ReferenceFindElementaryCycles(adj, nodes, budget);
      EXPECT_EQ(got.cycles, want.cycles)
          << "trial " << trial << " budget " << budget;
      EXPECT_EQ(got.budget_exhausted, want.budget_exhausted)
          << "trial " << trial << " budget " << budget;
    }
  }
}

TEST(ReordererTest, MatchesReferenceOnZipfSkewedDenseBatches) {
  // Smallbank at Zipf 1.0 over 10k users is what a hot Smallbank orderer
  // batches; fewer users and uniform hot-key batches push the same shapes
  // through budget trips and the shatter fallback.
  struct Case {
    std::string name;
    std::vector<proto::ReadWriteSet> sets;
    ReorderConfig config;
  };
  std::vector<Case> cases;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    cases.push_back({"smallbank-10k-zipf1 seed " + std::to_string(seed),
                     workload::MakeSmallbankBatch(256, 10000, 1.0, seed),
                     {}});
    cases.push_back({"smallbank-200-zipf1 seed " + std::to_string(seed),
                     workload::MakeSmallbankBatch(256, 200, 1.0, seed),
                     {}});
  }
  Rng rng(0xd15e);
  for (int trial = 0; trial < 6; ++trial) {
    ReorderConfig tight;
    tight.max_cycles_per_round = 64 + 64 * trial;
    tight.max_rounds = 1 + trial % 3;
    cases.push_back({"dense-hot trial " + std::to_string(trial),
                     RandomBatch(rng, 96, 6, 2, 2), tight});
  }

  bool saw_budget_trip = false;
  bool saw_fallback = false;
  for (const Case& c : cases) {
    const auto rwsets = AsPointers(c.sets);
    const ReorderResult got = ReorderTransactions(rwsets, c.config);
    const ReorderResult want = ReferenceReorder(rwsets, c.config);
    EXPECT_EQ(got.order, want.order) << c.name;
    EXPECT_EQ(got.aborted, want.aborted) << c.name;
    EXPECT_EQ(got.stats.ToString(), want.stats.ToString()) << c.name;
    saw_budget_trip |= want.stats.rounds > 2;
    saw_fallback |= want.stats.fallback_used;
  }
  EXPECT_TRUE(saw_budget_trip);
  EXPECT_TRUE(saw_fallback);
}

}  // namespace
}  // namespace fabricpp::ordering
