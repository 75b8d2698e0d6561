// Chaos suite: randomized fault schedules (loss + jitter + duplication +
// partitions + peer and Raft-leader crashes) against the full pipeline.
// After the network heals and drains, every peer's ledger must converge to
// one hash-chained history, no transaction may commit twice, and the whole
// run must replay bit-for-bit from its seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/strings.h"
#include "fabric/network.h"
#include "sim/fault_injector.h"
#include "workload/smallbank.h"

namespace fabricpp {
namespace {

using fabric::FabricConfig;
using fabric::FabricNetwork;
using sim::kMillisecond;
using sim::kSecond;

workload::SmallbankConfig ChaosWorkloadConfig() {
  workload::SmallbankConfig wl;
  wl.num_users = 1000;
  return wl;
}

FabricConfig ChaosBaseConfig(FabricConfig config, uint64_t seed) {
  config.block.max_transactions = 64;
  config.client_fire_rate_tps = 100;
  // Short enough that lost work is retried inside the 8 s firing window.
  config.client_endorsement_timeout = 500 * kMillisecond;
  config.client_commit_timeout = 2 * kSecond;
  config.client_max_retries = 5;
  config.seed = seed;
  return config;
}

/// Applies the standard chaos schedule, runs the experiment, heals the
/// network, drains, and asserts convergence + exactly-once commits. Returns
/// a fingerprint of the final state for reproducibility checks.
struct ChaosOutcome {
  uint64_t successful = 0;
  uint64_t failed = 0;
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t peer_recoveries = 0;
  uint64_t height = 0;       ///< Channel 0 (kept for single-channel asserts).
  crypto::Digest tip{};      ///< Channel 0.
  /// Per-channel (height, tip) across all channels — the multi-channel
  /// fingerprint.
  std::vector<std::pair<uint64_t, crypto::Digest>> chains;

  auto Tie() const {
    return std::tie(successful, failed, dropped, duplicated, peer_recoveries,
                    height, tip, chains);
  }
};

ChaosOutcome RunChaos(FabricConfig config, bool crash_raft_leader) {
  workload::SmallbankWorkload workload(ChaosWorkloadConfig());
  FabricNetwork network(config, &workload);

  // Background probabilistic faults on every link.
  sim::LinkFaults faults;
  faults.loss_prob = 0.05;
  faults.duplicate_prob = 0.02;
  faults.max_extra_delay = 500;
  network.fault_injector().SetDefaultLinkFaults(faults);
  // Peer 1 loses the orderer for 1.5 s mid-run (both directions).
  network.fault_injector().PartitionPair(network.peer(1).node_id(),
                                         network.orderer().node_id(),
                                         2 * kSecond, 3500 * kMillisecond);
  // Peer 2 crashes outright and restarts with a cold pipeline.
  network.SchedulePeerCrash(2, 3 * kSecond, 4500 * kMillisecond);
  if (crash_raft_leader) {
    network.ScheduleRaftLeaderCrash(2500 * kMillisecond,
                                    1500 * kMillisecond);
  }

  network.RunFor(8 * kSecond, 1 * kSecond);

  // Heal and drain: stop probabilistic faults (windows expire on their
  // own), then pull-sync twice so tail blocks with no successor are found.
  network.fault_injector().ClearLinkFaults();
  network.SyncPeers();
  network.env().RunUntil(12 * kSecond);
  network.SyncPeers();
  network.env().RunUntil(15 * kSecond);

  // Convergence: on every channel, every peer holds the same verified hash
  // chain. Exactly-once: despite duplicated submissions and redelivered
  // blocks, no transaction id commits as valid twice anywhere in any chain.
  std::vector<std::pair<uint64_t, crypto::Digest>> chains;
  for (uint32_t c = 0; c < config.num_channels; ++c) {
    const ledger::Ledger& observer = network.peer(0).ledger(c);
    EXPECT_GT(observer.Height(), 1u) << "channel " << c;
    for (uint32_t p = 0; p < network.num_peers(); ++p) {
      const ledger::Ledger& ledger = network.peer(p).ledger(c);
      EXPECT_TRUE(ledger.VerifyChain().ok()) << "peer " << p << " ch " << c;
      EXPECT_EQ(ledger.Height(), observer.Height())
          << "peer " << p << " ch " << c;
      EXPECT_EQ(ledger.LastHash(), observer.LastHash())
          << "peer " << p << " ch " << c;
    }
    chains.emplace_back(observer.Height(), observer.LastHash());

    std::map<std::string, std::pair<uint64_t, size_t>> valid_ids;
    for (uint64_t n = 1; n < observer.Height(); ++n) {
      const auto stored = observer.GetBlock(n);
      EXPECT_TRUE(stored.ok());
      if (!stored.ok()) continue;
      const ledger::StoredBlock* sb = *stored;
      for (size_t i = 0; i < sb->block.transactions.size(); ++i) {
        if (sb->validation_codes[i] != proto::TxValidationCode::kValid) {
          continue;
        }
        const auto [it, inserted] = valid_ids.emplace(
            sb->block.transactions[i].tx_id, std::make_pair(n, i));
        EXPECT_TRUE(inserted)
            << "tx committed twice: " << sb->block.transactions[i].tx_id
            << " first at block " << it->second.first << " idx "
            << it->second.second << " again at block " << n << " idx " << i
            << " client " << sb->block.transactions[i].client << " reads "
            << sb->block.transactions[i].rwset.reads.size() << " writes "
            << sb->block.transactions[i].rwset.writes.size();
      }
    }
  }

  const sim::FaultStats& stats = network.fault_injector().stats();
  network.metrics().SetNetworkFaultTotals(stats.TotalDropped(),
                                          stats.duplicated);
  const fabric::RunReport report = network.metrics().Report();
  // The schedule actually produced faults, and progress survived them.
  EXPECT_GT(report.net_messages_dropped, 0u);
  EXPECT_GT(report.net_messages_duplicated, 0u);
  EXPECT_GT(network.metrics().successful(), 0u);

  ChaosOutcome outcome;
  outcome.successful = network.metrics().successful();
  outcome.failed = network.metrics().failed();
  outcome.dropped = stats.TotalDropped();
  outcome.duplicated = stats.duplicated;
  outcome.peer_recoveries = report.peer_recoveries;
  outcome.height = chains[0].first;
  outcome.tip = chains[0].second;
  outcome.chains = std::move(chains);
  return outcome;
}

TEST(ChaosTest, SoloVanillaSurvivesFaultSchedule) {
  const ChaosOutcome outcome =
      RunChaos(ChaosBaseConfig(FabricConfig::Vanilla(), 42), false);
  // The crashed peer completed at least one catch-up episode.
  EXPECT_GE(outcome.peer_recoveries, 1u);
}

TEST(ChaosTest, SoloFabricPlusPlusSurvivesFaultSchedule) {
  const ChaosOutcome outcome =
      RunChaos(ChaosBaseConfig(FabricConfig::FabricPlusPlus(), 42), false);
  EXPECT_GE(outcome.peer_recoveries, 1u);
}

TEST(ChaosTest, RaftLeaderCrashFailsOverWithoutLosingBlocks) {
  FabricConfig config = ChaosBaseConfig(FabricConfig::Vanilla(), 42);
  config.ordering_backend = fabric::OrderingBackend::kRaft;
  const ChaosOutcome outcome = RunChaos(config, true);
  // Ordering stalled during the election but resumed: blocks kept flowing
  // (convergence + uniqueness already asserted inside RunChaos).
  EXPECT_GT(outcome.height, 1u);
}

// --- Overload survival ---
// One spamming client fires at a large multiple of the polite clients'
// rate. With bounded admission queues + DRR fair scheduling, the polite
// clients keep committing (goodput floor), every refused transaction is
// BUSY-accounted (zero silent drops), and nothing commits twice despite
// the BUSY-retry loops.

FabricConfig OverloadConfig(uint64_t seed) {
  FabricConfig config = FabricConfig::FabricPlusPlus();
  config.seed = seed;
  config.clients_per_channel = 5;
  config.client_fire_rate_tps = 50;
  // One ordering core makes the orderer the bottleneck (~275 tps for
  // 3.6 ms verify + order work): 4 polite clients x 50 tps fit under
  // capacity, the 20x spammer pushes total offered load to ~1200 tps, so
  // admission control — not raw headroom — decides who commits.
  config.orderer_cores = 1;
  config.block.max_transactions = 64;
  config.client_endorsement_timeout = 500 * kMillisecond;
  config.client_commit_timeout = 2 * kSecond;
  config.client_max_retries = 5;
  // The graceful-degradation layer under test.
  config.admission_queue_depth = 64;
  config.fair_sched_quantum = 4;
  config.busy_retry_hint = 20 * kMillisecond;
  return config;
}

struct OverloadOutcome {
  fabric::RunReport report;
  uint64_t unresolved = 0;
  uint64_t height = 0;
  crypto::Digest tip{};
};

OverloadOutcome RunOverload(const FabricConfig& config,
                            double spammer_multiplier) {
  workload::SmallbankWorkload workload(ChaosWorkloadConfig());
  FabricNetwork network(config, &workload);
  // Client 0 misbehaves; the rest fire at the configured polite rate.
  network.client(0).set_fire_rate_multiplier(spammer_multiplier);

  network.RunFor(6 * kSecond, 1 * kSecond);
  // Drain: firing stopped at 6 s; by 10 s every proposal has committed,
  // aborted, or hit its (2 s) commit timeout.
  network.env().RunUntil(10 * kSecond);

  OverloadOutcome out;
  out.report = network.metrics().Report();
  out.unresolved = network.metrics().unresolved_fired();
  const ledger::Ledger& observer = network.peer(0).ledger(0);
  EXPECT_TRUE(observer.VerifyChain().ok());
  out.height = observer.Height();
  out.tip = observer.LastHash();

  // Exactly-once under BUSY-retry: a refused transaction is resubmitted as
  // a *fresh* proposal (new txid), so no transaction id may commit as
  // valid twice anywhere in the chain.
  std::set<std::string> valid_ids;
  for (uint64_t n = 1; n < observer.Height(); ++n) {
    const auto stored = observer.GetBlock(n);
    EXPECT_TRUE(stored.ok());
    if (!stored.ok()) continue;
    const ledger::StoredBlock* sb = *stored;
    for (size_t i = 0; i < sb->block.transactions.size(); ++i) {
      if (sb->validation_codes[i] != proto::TxValidationCode::kValid) continue;
      EXPECT_TRUE(valid_ids.insert(sb->block.transactions[i].tx_id).second)
          << "tx committed twice under BUSY-retry: "
          << sb->block.transactions[i].tx_id << " (client "
          << sb->block.transactions[i].client << ")";
    }
  }
  return out;
}

uint64_t PoliteGoodput(const fabric::RunReport& report,
                       const std::string& client) {
  for (const auto& [name, successful] : report.per_client_successful) {
    if (name == client) return successful;
  }
  return 0;
}

uint64_t PoliteMin(const fabric::RunReport& report) {
  uint64_t polite_min = ~0ULL;
  for (uint32_t i = 1; i <= 4; ++i) {
    polite_min = std::min(
        polite_min, PoliteGoodput(report, StrFormat("client_c0_%u", i)));
  }
  return polite_min;
}

TEST(ChaosTest, OverloadSpammerCannotStarvePoliteClients) {
  const OverloadOutcome out = RunOverload(OverloadConfig(42), 20.0);
  const fabric::RunReport& report = out.report;

  // The admission layer engaged: refusals happened and were accounted as
  // explicit BUSY responses, never silent drops.
  EXPECT_GT(report.orderer_busy, 0u);
  EXPECT_GT(
      report.aborts[static_cast<size_t>(fabric::TxOutcome::kAbortBusy)], 0u);
  EXPECT_EQ(out.unresolved, 0u)
      << "a fired proposal vanished without commit, abort, or timeout";

  // Polite-client goodput floor: every polite client keeps a real commit
  // rate despite the spammer (client_c0_0) firing at 20x. Their demand
  // (50 tps each) sits under the DRR fair share, so they should commit a
  // large fraction of it.
  const uint64_t polite_min = PoliteMin(report);
  EXPECT_GE(polite_min, 100u)
      << "a polite client was starved below ~20 tps over the 5 s window";
  // Per-client goodput is close to even across all five clients: the
  // spammer's extra offered load buys it little once DRR gates admission.
  EXPECT_GT(report.jain_fairness, 0.6);
  EXPECT_GT(report.successful, 0u);

  // The same overload with the graceful-degradation layer off: the orderer
  // queue grows without bound, latency blows through the commit timeout,
  // and the polite clients do strictly worse on both floor and fairness.
  FabricConfig unprotected = OverloadConfig(42);
  unprotected.admission_queue_depth = 0;
  unprotected.fair_sched_quantum = 0;
  const OverloadOutcome baseline = RunOverload(unprotected, 20.0);
  EXPECT_GT(polite_min, PoliteMin(baseline.report));
  EXPECT_GT(report.jain_fairness, baseline.report.jain_fairness);
}

TEST(ChaosTest, OverloadEndorserAdmissionShedsExplicitly) {
  // Starve the *endorsement* stage instead: single-core peers simulate at
  // ~183 proposals/s against ~600/s offered per peer, so the endorser-side
  // admission bound (not the orderer's) is what refuses work.
  FabricConfig config = OverloadConfig(7);
  config.peer_cores = 1;
  config.admission_queue_depth = 16;
  const OverloadOutcome out = RunOverload(config, 20.0);

  EXPECT_GT(out.report.endorser_busy, 0u);
  EXPECT_GT(
      out.report.aborts[static_cast<size_t>(fabric::TxOutcome::kAbortBusy)],
      0u);
  EXPECT_EQ(out.unresolved, 0u);
  EXPECT_GT(out.report.successful, 0u)
      << "endorser shedding must degrade, not collapse, the pipeline";
}

TEST(ChaosTest, OverloadFingerprintInvariantAcrossWorkerCounts) {
  // All admission/scheduling decisions run on the orderer's endpoint
  // context: the validator pool accelerates wall-clock crypto only and
  // must not shift a single BUSY, commit, or block hash.
  FabricConfig config = OverloadConfig(77);
  config.fair_conflict_penalty = 8;  // Exercise the hot-key surcharge too.
  config.validator_workers = 1;
  const OverloadOutcome a = RunOverload(config, 20.0);
  config.validator_workers = 4;
  const OverloadOutcome b = RunOverload(config, 20.0);

  EXPECT_EQ(a.tip, b.tip);
  EXPECT_EQ(a.height, b.height);
  EXPECT_EQ(a.report.successful, b.report.successful);
  EXPECT_EQ(a.report.failed, b.report.failed);
  EXPECT_EQ(a.report.endorser_busy, b.report.endorser_busy);
  EXPECT_EQ(a.report.orderer_busy, b.report.orderer_busy);
  EXPECT_EQ(a.unresolved, 0u);
  EXPECT_EQ(b.unresolved, 0u);
}

TEST(ChaosTest, IdenticalSeedsReplayBitForBit) {
  const FabricConfig config =
      ChaosBaseConfig(FabricConfig::FabricPlusPlus(), 1234);
  const ChaosOutcome a = RunChaos(config, false);
  const ChaosOutcome b = RunChaos(config, false);
  EXPECT_EQ(a.Tie(), b.Tie());

  // A different seed changes the workload stream and the fault dice — the
  // chain tip cannot match.
  const ChaosOutcome c =
      RunChaos(ChaosBaseConfig(FabricConfig::FabricPlusPlus(), 4321), false);
  EXPECT_NE(a.tip, c.tip);
}

TEST(ChaosTest, IdenticalSeedsReplayBitForBitFourChannels) {
  // The multi-channel fingerprint: four independent chains under the same
  // fault schedule, every channel's (height, tip) replayed bit-for-bit.
  FabricConfig config = ChaosBaseConfig(FabricConfig::FabricPlusPlus(), 1234);
  config.num_channels = 4;
  config.clients_per_channel = 2;
  const ChaosOutcome a = RunChaos(config, false);
  const ChaosOutcome b = RunChaos(config, false);
  ASSERT_EQ(a.chains.size(), 4u);
  EXPECT_EQ(a.Tie(), b.Tie());
  // The channels really carry distinct histories (distinct client streams).
  EXPECT_NE(a.chains[0].second, a.chains[1].second);
}

TEST(ChaosTest, RaftFourChannelsReplaysBitForBit) {
  // Raft ordering with four channels: the consensus log interleaves blocks
  // of all channels; the per-channel (channel, number) identity must route
  // each commit to its own chain, and the whole run must still replay
  // bit-for-bit — including across a leader crash.
  FabricConfig config = ChaosBaseConfig(FabricConfig::Vanilla(), 1234);
  config.ordering_backend = fabric::OrderingBackend::kRaft;
  config.num_channels = 4;
  config.clients_per_channel = 2;
  const ChaosOutcome a = RunChaos(config, true);
  const ChaosOutcome b = RunChaos(config, true);
  ASSERT_EQ(a.chains.size(), 4u);
  EXPECT_EQ(a.Tie(), b.Tie());
  for (const auto& [height, tip] : a.chains) EXPECT_GT(height, 1u);
}

}  // namespace
}  // namespace fabricpp
