// Tests for fabric::Metrics and focused pipeline behaviours: measurement
// windows, latency accounting, client resubmission, the in-flight window,
// the orderer's batch timeout and its reorder-stage pipeline depth.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/strings.h"
#include "fabric/metrics.h"
#include "fabric/network.h"
#include "node/client_node.h"
#include "sim/fault_injector.h"
#include "workload/smallbank.h"

namespace fabricpp::fabric {
namespace {

// --- Metrics unit tests ---

TEST(MetricsTest, CountsInsideWindowOnly) {
  Metrics metrics;
  metrics.SetWindow(1000, 2000);
  metrics.NoteFired("a/1", 100);
  metrics.Resolve("a/1", TxOutcome::kSuccess, 500);  // Before window.
  metrics.NoteFired("a/2", 1100);
  metrics.Resolve("a/2", TxOutcome::kSuccess, 1500);  // Inside.
  metrics.NoteFired("a/3", 1900);
  metrics.Resolve("a/3", TxOutcome::kAbortMvcc, 2500);  // After.
  EXPECT_EQ(metrics.successful(), 1u);
  EXPECT_EQ(metrics.failed(), 0u);
}

TEST(MetricsTest, LatencyFromFireToResolve) {
  Metrics metrics;
  metrics.SetWindow(0, ~0ULL);
  metrics.NoteFired("c/1", 1000);
  metrics.Resolve("c/1", TxOutcome::kSuccess, 251000);
  const RunReport report = metrics.Report();
  EXPECT_NEAR(report.latency_avg_ms, 250.0, 15.0);
}

TEST(MetricsTest, AbortCategoriesSeparated) {
  Metrics metrics;
  metrics.SetWindow(0, ~0ULL);
  metrics.Resolve("x/1", TxOutcome::kAbortMvcc, 10);
  metrics.Resolve("x/2", TxOutcome::kAbortMvcc, 10);
  metrics.Resolve("x/3", TxOutcome::kAbortReorderer, 10);
  metrics.Resolve("x/4", TxOutcome::kAbortStaleSimulation, 10);
  EXPECT_EQ(metrics.failed(), 4u);
  EXPECT_EQ(metrics.aborts(TxOutcome::kAbortMvcc), 2u);
  EXPECT_EQ(metrics.aborts(TxOutcome::kAbortReorderer), 1u);
  EXPECT_EQ(metrics.aborts(TxOutcome::kAbortStaleSimulation), 1u);
  EXPECT_EQ(metrics.aborts(TxOutcome::kAbortVersionSkew), 0u);
}

TEST(MetricsTest, ReportRatesUseWindowSeconds) {
  Metrics metrics;
  metrics.SetWindow(0, 2 * sim::kSecond);
  for (int i = 0; i < 100; ++i) {
    metrics.Resolve("c/" + std::to_string(i), TxOutcome::kSuccess, 1000);
  }
  const RunReport report = metrics.Report();
  EXPECT_NEAR(report.successful_tps, 50.0, 1e-9);
}

TEST(MetricsTest, UnknownKeyStillCounted) {
  Metrics metrics;
  metrics.SetWindow(0, ~0ULL);
  metrics.Resolve("never-fired/9", TxOutcome::kSuccess, 77);
  EXPECT_EQ(metrics.successful(), 1u);
}

TEST(MetricsTest, EmptyReportPercentilesAreZero) {
  // A run where nothing resolved (e.g. total fault blackout) must report
  // zero latency percentiles, not bucket bounds from an empty histogram.
  Metrics metrics;
  metrics.SetWindow(0, ~0ULL);
  const RunReport report = metrics.Report();
  EXPECT_EQ(report.latency_p50_ms, 0.0);
  EXPECT_EQ(report.latency_p95_ms, 0.0);
  EXPECT_EQ(report.latency_p99_ms, 0.0);
  EXPECT_EQ(report.latency_avg_ms, 0.0);
  EXPECT_EQ(report.block_gap_avg_ms, 0.0);
  EXPECT_EQ(report.block_gap_p95_ms, 0.0);
}

TEST(MetricsTest, JainFairnessDefaultsToFairNotStarved) {
  {
    // Nobody fired: no allocation exists, so the index is 1.0 — a zeroed
    // report must not read as "maximally unfair".
    Metrics metrics;
    metrics.SetWindow(0, ~0ULL);
    EXPECT_EQ(metrics.Report().jain_fairness, 1.0);
  }
  {
    // One client: trivially fair regardless of its success count.
    Metrics metrics;
    metrics.SetWindow(0, ~0ULL);
    metrics.NoteFired("solo/1", 10);
    metrics.Resolve("solo/1", TxOutcome::kAbortMvcc, 20);
    EXPECT_EQ(metrics.Report().jain_fairness, 1.0);
  }
  {
    // Several clients fired, none succeeded: equal zero shares are fair
    // (the 0/0 limit), not jain = 0.
    Metrics metrics;
    metrics.SetWindow(0, ~0ULL);
    for (int c = 0; c < 3; ++c) {
      const std::string key = ProposalKey(StrFormat("c%d", c), 1);
      metrics.NoteFired(key, 10);
      metrics.Resolve(key, TxOutcome::kAbortMvcc, 20);
    }
    EXPECT_EQ(metrics.Report().jain_fairness, 1.0);
  }
  {
    // Genuinely skewed shares still compute the textbook index: x = {3, 1}
    // gives (3+1)^2 / (2 * (9+1)) = 0.8.
    Metrics metrics;
    metrics.SetWindow(0, ~0ULL);
    for (int i = 1; i <= 3; ++i) {
      metrics.NoteFired(ProposalKey("a", i), 10);
      metrics.Resolve(ProposalKey("a", i), TxOutcome::kSuccess, 20);
    }
    metrics.NoteFired(ProposalKey("b", 1), 10);
    metrics.Resolve(ProposalKey("b", 1), TxOutcome::kSuccess, 20);
    EXPECT_DOUBLE_EQ(metrics.Report().jain_fairness, 0.8);
  }
}

TEST(BackoffTest, DoublesThenSaturatesAtMax) {
  EXPECT_EQ(node::SaturatingBackoff(100, 10000, 0), 100u);
  EXPECT_EQ(node::SaturatingBackoff(100, 10000, 1), 200u);
  EXPECT_EQ(node::SaturatingBackoff(100, 10000, 3), 800u);
  EXPECT_EQ(node::SaturatingBackoff(100, 10000, 7), 10000u);
  EXPECT_EQ(node::SaturatingBackoff(100, 10000, 200), 10000u);
}

TEST(BackoffTest, ExtremeKnobsNeverOverflowToTinyDelays) {
  constexpr uint64_t kHuge = std::numeric_limits<uint64_t>::max();
  // Base near the top of the range: the old `delay *= 2` wrapped around
  // here and produced a near-zero delay instead of the configured ceiling.
  EXPECT_EQ(node::SaturatingBackoff(kHuge - 1, kHuge, 1), kHuge);
  EXPECT_EQ(node::SaturatingBackoff(kHuge, kHuge, 64), kHuge);
  EXPECT_EQ(node::SaturatingBackoff(kHuge / 2 + 1, kHuge, 1), kHuge);
  // Base above max clamps immediately, retries notwithstanding.
  EXPECT_EQ(node::SaturatingBackoff(kHuge, 5000, 0), 5000u);
  EXPECT_EQ(node::SaturatingBackoff(kHuge, 5000, 32), 5000u);
  // Many doublings of a small base saturate instead of wrapping: 1 << 64
  // would be 0 with wrapping arithmetic.
  EXPECT_EQ(node::SaturatingBackoff(1, kHuge, 64), kHuge);
  EXPECT_EQ(node::SaturatingBackoff(1, kHuge, 63), 1ull << 63);
  // Degenerate knobs stay sane.
  EXPECT_EQ(node::SaturatingBackoff(0, 10000, 5), 0u);
  EXPECT_EQ(node::SaturatingBackoff(100, 0, 5), 0u);
}

TEST(MetricsTest, OutcomeNames) {
  EXPECT_EQ(TxOutcomeToString(TxOutcome::kSuccess), "SUCCESS");
  EXPECT_EQ(TxOutcomeToString(TxOutcome::kAbortVersionSkew),
            "ABORT_VERSION_SKEW");
  EXPECT_EQ(ProposalKey("client", 7), "client/7");
}

// --- Pipeline behaviours ---

workload::SmallbankConfig ContendedConfig() {
  workload::SmallbankConfig wl;
  wl.num_users = 50;  // Tiny key space: many conflicts.
  wl.prob_write = 1.0;
  wl.zipf_s = 1.5;
  return wl;
}

TEST(PipelineBehaviourTest, ResubmissionAddsRetriedProposals) {
  workload::SmallbankWorkload workload(ContendedConfig());
  uint64_t with_retries = 0, without_retries = 0;
  for (const bool resubmit : {false, true}) {
    FabricConfig config = FabricConfig::Vanilla();
    config.block.max_transactions = 64;
    config.client_fire_rate_tps = 100;
    config.client_resubmit = resubmit;
    FabricNetwork network(config, &workload);
    const RunReport report = network.RunFor(4 * sim::kSecond);
    const uint64_t total = report.successful + report.failed;
    (resubmit ? with_retries : without_retries) = total;
  }
  // Retries re-enter the pipeline, so more transactions resolve in total.
  EXPECT_GT(with_retries, without_retries);
}

TEST(PipelineBehaviourTest, InflightWindowBoundsLoad) {
  workload::SmallbankWorkload workload(ContendedConfig());
  FabricConfig config = FabricConfig::Vanilla();
  config.block.max_transactions = 64;
  config.client_fire_rate_tps = 2000;  // Far beyond capacity.
  config.client_max_inflight = 16;
  FabricNetwork network(config, &workload);
  const RunReport report = network.RunFor(4 * sim::kSecond,
                                          1 * sim::kSecond);
  // With 4 clients x 16 in flight and a bounded pipeline, latency stays
  // bounded (no unbounded queue growth) even at 8000 tps offered.
  EXPECT_GT(report.successful, 0u);
  EXPECT_LT(report.latency_p95_ms, 3000.0);
}

TEST(PipelineBehaviourTest, BatchTimeoutCutsPartialBlocks) {
  // Fire 3 proposals (far fewer than the block size): only the timeout
  // condition can cut the batch.
  workload::SmallbankWorkload workload(ContendedConfig());
  FabricConfig config = FabricConfig::Vanilla();
  config.block.max_transactions = 1024;
  config.block.batch_timeout = 500 * sim::kMillisecond;
  FabricNetwork network(config, &workload);
  network.metrics().SetWindow(0, ~0ULL);
  network.SubmitProposal(0, 0, {"deposit_checking", "1", "5"});
  network.SubmitProposal(0, 1, {"deposit_checking", "2", "5"});
  network.SubmitProposal(0, 2, {"deposit_checking", "3", "5"});
  network.RunUntilIdle();
  EXPECT_EQ(network.metrics().successful(), 3u);
  EXPECT_GT(network.peer(0).ledger(0).Height(), 1u);
}

TEST(PipelineBehaviourTest, ZeroRetriesNeverResubmits) {
  workload::SmallbankWorkload workload(ContendedConfig());
  FabricConfig config = FabricConfig::Vanilla();
  config.block.max_transactions = 32;
  config.client_fire_rate_tps = 100;
  config.client_resubmit = false;
  FabricNetwork network(config, &workload);
  const RunReport report = network.RunFor(4 * sim::kSecond);
  // 4 clients x 100 tps x 4 s = 1600 fired; resolutions cannot exceed it.
  EXPECT_LE(report.successful + report.failed, 1600u);
}

TEST(PipelineBehaviourTest, SeedChangesOutcome) {
  workload::SmallbankWorkload workload(ContendedConfig());
  FabricConfig a = FabricConfig::Vanilla();
  a.block.max_transactions = 64;
  a.client_fire_rate_tps = 200;
  FabricConfig b = a;
  b.seed = 1234567;
  RunReport ra, rb;
  {
    FabricNetwork network(a, &workload);
    ra = network.RunFor(3 * sim::kSecond);
  }
  {
    FabricNetwork network(b, &workload);
    rb = network.RunFor(3 * sim::kSecond);
  }
  // Different seeds must actually change the workload stream (guards
  // against accidentally fixed RNG wiring).
  EXPECT_NE(ra.successful, rb.successful);
}

/// Fingerprint of a finished run on a reorder-bound orderer: deterministic
/// report, last reorder stats and the observer peer's chain tip. Wall-clock
/// measurements are excluded by design.
struct PipelinedRun {
  RunReport report;
  std::string fingerprint;
  crypto::Digest tip;
};

PipelinedRun RunPipelined(uint32_t pipeline_depth, bool with_faults) {
  workload::SmallbankConfig wl_config;
  wl_config.num_users = 500;
  workload::SmallbankWorkload workload(wl_config);

  FabricConfig config = FabricConfig::FabricPlusPlus();
  config.block.max_transactions = 64;
  config.client_fire_rate_tps = 150;
  config.seed = 1234;
  config.ordering_pipeline_depth = pipeline_depth;
  // Price the reorder pass like the paper's cycle-heavy Figure 16 worst
  // cases (tens of ms per block): the reorder stage becomes the orderer's
  // bottleneck, so the stall/pipeline accounting is exercised.
  config.cost.reorder_per_tx = 2000;

  FabricNetwork network(config, &workload);
  if (with_faults) {
    sim::LinkFaults faults;
    faults.loss_prob = 0.05;
    faults.duplicate_prob = 0.02;
    faults.max_extra_delay = 500;
    network.fault_injector().SetDefaultLinkFaults(faults);
    network.SchedulePeerCrash(2, 1 * sim::kSecond, 2 * sim::kSecond);
  }
  PipelinedRun run;
  run.report = network.RunFor(4 * sim::kSecond, 500 * sim::kMillisecond);
  if (with_faults) {
    network.fault_injector().ClearLinkFaults();
    network.SyncPeers();
    network.env().RunUntil(6 * sim::kSecond);
  }
  EXPECT_GT(network.metrics().successful(), 0u);
  // Reordering ran, and its wall-clock landed on the measurement side.
  EXPECT_GT(network.metrics().reorder_wall_clock().batches, 0u);
  run.fingerprint = run.report.ToString() + "\n" +
                    network.orderer().last_reorder_stats().ToString();
  run.tip = network.peer(0).ledger(0).LastHash();
  return run;
}

TEST(PipelineBehaviourTest, PipelineDepthChangesStallAccounting) {
  // Depth changes the virtual-time schedule (that is its job): on this
  // saturated setup, depth 1 and depth 3 must differ in stall accounting —
  // the pipeline visibly did something.
  const PipelinedRun inline_run = RunPipelined(1, /*with_faults=*/false);
  const PipelinedRun piped_run = RunPipelined(3, /*with_faults=*/false);
  EXPECT_GT(inline_run.report.ordering_stalls, 0u);
  EXPECT_NE(piped_run.report.ordering_stalls,
            inline_run.report.ordering_stalls);
  EXPECT_NE(piped_run.fingerprint, inline_run.fingerprint);
}

TEST(PipelineBehaviourTest, PipelinedChaosReplayIsDeterministic) {
  const PipelinedRun first = RunPipelined(2, /*with_faults=*/true);
  const PipelinedRun second = RunPipelined(2, /*with_faults=*/true);
  EXPECT_EQ(second.fingerprint, first.fingerprint);
  EXPECT_EQ(second.tip, first.tip);
}

}  // namespace
}  // namespace fabricpp::fabric
