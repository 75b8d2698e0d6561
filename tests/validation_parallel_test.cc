// Tests for the validator's parallel verify stage: thread safety of the
// shared Validator (identity cache, concurrent policy checks) and the core
// guarantee that `validator_workers` accelerates real crypto only — every
// simulation output (validation codes, metrics snapshots, chain hashes,
// chaos-suite replays) is byte-identical for any worker count.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/thread_pool.h"
#include "crypto/identity.h"
#include "fabric/network.h"
#include "peer/endorser.h"
#include "peer/policy.h"
#include "peer/validator.h"
#include "sim/fault_injector.h"
#include "workload/smallbank.h"

namespace fabricpp {
namespace {

using fabric::FabricConfig;
using fabric::FabricNetwork;
using sim::kMillisecond;
using sim::kSecond;

constexpr uint64_t kSeed = 42;

// --- ThreadPool ---

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(),
                   [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ReusableAcrossCallsAndHandlesEdgeSizes) {
  ThreadPool pool(2);
  for (const size_t n : {0ul, 1ul, 2ul, 7ul, 100ul}) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(n, [&](size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "n=" << n;
  }
}

TEST(ThreadPoolTest, TasksGenuinelyRunOnMultipleThreads) {
  // Rendezvous: every task blocks until all four are inside ParallelFor at
  // once. Completes only if the caller and the three workers each picked up
  // one task — i.e. the fan-out is real concurrency, not a serial loop.
  // (Core count does not matter: blocked threads yield the CPU.)
  ThreadPool pool(3);
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  pool.ParallelFor(4, [&](size_t) {
    std::unique_lock<std::mutex> lock(mu);
    if (++arrived == 4) {
      cv.notify_all();
    } else {
      cv.wait(lock, [&]() { return arrived == 4; });
    }
  });
  EXPECT_EQ(arrived, 4);
}

TEST(ThreadPoolTest, ZeroExtraThreadsRunsSerially) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.parallelism(), 1u);
  size_t sum = 0;  // Unsynchronized on purpose: everything runs inline.
  pool.ParallelFor(50, [&](size_t i) { sum += i; });
  EXPECT_EQ(sum, 1225u);
}

// --- Shared Validator under concurrency ---

/// Builds a transaction endorsed by one peer per org ("A1", "B1", ...),
/// signed over its real payload, optionally tampering the rwset afterwards.
proto::Transaction EndorsedTx(uint64_t id, uint32_t num_orgs,
                              const std::string& policy_id, bool tamper) {
  proto::Transaction tx;
  tx.proposal_id = id;
  tx.client = "c";
  tx.channel = "ch0";
  tx.chaincode = "cc";
  tx.policy_id = policy_id;
  tx.rwset.reads.push_back({"k" + std::to_string(id), proto::kNilVersion});
  tx.rwset.writes.push_back({"k" + std::to_string(id), "v", false});
  const Bytes payload = peer::EndorsementPayload(tx.channel, tx.chaincode,
                                                 tx.policy_id, tx.rwset);
  for (uint32_t o = 0; o < num_orgs; ++o) {
    const std::string org(1, static_cast<char>('A' + o));
    proto::Endorsement e;
    e.peer = org + std::to_string(1 + id % 4);  // Spread over 4 signers/org.
    e.org = org;
    e.signature = crypto::Identity(kSeed, e.peer).Sign(payload);
    tx.endorsements.push_back(std::move(e));
  }
  if (tamper) tx.rwset.writes[0].value = "evil";
  proto::Proposal proposal;
  proposal.proposal_id = id;
  proposal.client = tx.client;
  proposal.nonce = id;
  tx.ComputeTxId(proposal);
  return tx;
}

TEST(ValidatorConcurrencyTest, ConcurrentPolicyChecksOnSharedValidator) {
  peer::PolicyRegistry policies;
  peer::EndorsementPolicy policy;
  policy.id = "AND(A,B)";
  policy.required_orgs = {"A", "B"};
  (void)policies.Register(std::move(policy));

  // No pre-warm: the first checks race to insert cache entries, exercising
  // the shared_mutex slow path (the seed code mutated an unguarded map here
  // — this test runs under TSan in CI).
  peer::Validator validator(kSeed, &policies);

  std::vector<proto::Transaction> txs;
  for (uint64_t i = 0; i < 64; ++i) {
    txs.push_back(EndorsedTx(i, 2, "AND(A,B)", /*tamper=*/i % 8 == 7));
  }

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (size_t i = 0; i < txs.size(); ++i) {
        const size_t idx = (i + static_cast<size_t>(t) * 13) % txs.size();
        const bool expected = idx % 8 != 7;
        if (validator.CheckEndorsementPolicy(txs[idx]) != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ValidatorConcurrencyTest, VerifyStageIdenticalAcrossWorkerCounts) {
  peer::PolicyRegistry policies;
  peer::EndorsementPolicy policy;
  policy.id = "AND(A,B)";
  policy.required_orgs = {"A", "B"};
  (void)policies.Register(std::move(policy));

  proto::Block block;
  block.header.number = 1;
  for (uint64_t i = 0; i < 96; ++i) {
    block.transactions.push_back(
        EndorsedTx(i, 2, "AND(A,B)", /*tamper=*/i % 5 == 3));
  }
  block.SealDataHash();

  std::vector<proto::TxValidationCode> baseline;
  crypto::Digest baseline_tip{};
  for (const uint32_t workers : {1u, 4u, 8u}) {
    ThreadPool pool(workers - 1);
    peer::Validator validator(kSeed, &policies,
                              workers > 1 ? &pool : nullptr);
    statedb::StateDb db;
    ledger::Ledger ledger;
    block.header.previous_hash = ledger.LastHash();
    const peer::BlockValidationResult result =
        validator.ValidateAndCommit(block, &db, &ledger);
    if (workers == 1) {
      baseline = result.codes;
      baseline_tip = ledger.LastHash();
      // Sanity: the mix actually contains both outcomes.
      EXPECT_GT(result.num_valid, 0u);
      EXPECT_GT(result.num_policy_failures, 0u);
    } else {
      EXPECT_EQ(result.codes, baseline) << workers << " workers";
      EXPECT_EQ(ledger.LastHash(), baseline_tip) << workers << " workers";
    }
  }
}

// --- Full-pipeline determinism across worker counts ---

/// Fingerprint of a finished run: the deterministic report string, the
/// orderer's reorder stats, and the observer peer's chain tip. Wall-clock
/// measurements (validation stage timings, reorder elapsed time) are
/// *excluded* by design — they are host measurements and legitimately vary;
/// ReorderStats is included precisely to pin down that it no longer carries
/// any.
std::pair<std::string, std::vector<crypto::Digest>> RunFingerprint(
    uint32_t workers, bool with_faults, uint32_t num_channels = 1) {
  workload::SmallbankConfig wl_config;
  wl_config.num_users = 500;
  wl_config.channel_shards = num_channels;  // One tenant shard per channel.
  workload::SmallbankWorkload workload(wl_config);

  FabricConfig config = FabricConfig::FabricPlusPlus();
  config.block.max_transactions = 64;
  config.client_fire_rate_tps = 150;
  config.seed = 1234;
  config.validator_workers = workers;
  config.num_channels = num_channels;
  if (num_channels > 1) config.clients_per_channel = 2;

  FabricNetwork network(config, &workload);
  if (with_faults) {
    sim::LinkFaults faults;
    faults.loss_prob = 0.05;
    faults.duplicate_prob = 0.02;
    faults.max_extra_delay = 500;
    network.fault_injector().SetDefaultLinkFaults(faults);
    network.SchedulePeerCrash(2, 1 * kSecond, 2 * kSecond);
  }
  const fabric::RunReport report = network.RunFor(4 * kSecond, 500 * kMillisecond);
  if (with_faults) {
    network.fault_injector().ClearLinkFaults();
    network.SyncPeers();
    network.env().RunUntil(6 * kSecond);
  }
  // The parallel path actually ran when asked to.
  if (workers > 1) {
    EXPECT_NE(network.validator_pool(), nullptr);
    EXPECT_EQ(network.validator_pool()->parallelism(), workers);
  } else {
    EXPECT_EQ(network.validator_pool(), nullptr);
  }
  EXPECT_GT(network.metrics().successful(), 0u);
  EXPECT_GT(network.metrics().validation_wall_clock().blocks, 0u);
  // Reordering ran (FabricPlusPlus config) and its wall-clock landed on the
  // measurement side, not in the deterministic stats.
  EXPECT_GT(network.metrics().reorder_wall_clock().batches, 0u);
  // Per-channel reorder stats + every channel's chain tip: the fingerprint
  // covers all channels, not just channel 0.
  std::string text = report.ToString();
  std::vector<crypto::Digest> tips;
  for (uint32_t c = 0; c < num_channels; ++c) {
    text += "\n" + network.orderer().last_reorder_stats(c).ToString();
    tips.push_back(network.peer(0).ledger(c).LastHash());
  }
  return {std::move(text), std::move(tips)};
}

TEST(ValidationWorkersDeterminismTest, CleanRunBitIdenticalFor1_4_8Workers) {
  const auto baseline = RunFingerprint(1, /*with_faults=*/false);
  EXPECT_EQ(RunFingerprint(4, false), baseline);
  EXPECT_EQ(RunFingerprint(8, false), baseline);
}

TEST(ValidationWorkersDeterminismTest, ChaosReplayBitIdenticalFor1_4_8Workers) {
  const auto baseline = RunFingerprint(1, /*with_faults=*/true);
  EXPECT_EQ(RunFingerprint(4, true), baseline);
  EXPECT_EQ(RunFingerprint(8, true), baseline);
}

TEST(ValidationWorkersDeterminismTest, CleanRunBitIdenticalFourChannels) {
  // Four channels, each a Smallbank tenant shard: per-channel reorder stats
  // and all four chain tips must be byte-identical across worker counts.
  const auto baseline =
      RunFingerprint(1, /*with_faults=*/false, /*num_channels=*/4);
  ASSERT_EQ(baseline.second.size(), 4u);
  EXPECT_EQ(RunFingerprint(4, false, 4), baseline);
  EXPECT_EQ(RunFingerprint(8, false, 4), baseline);
  // The shards genuinely diverge the chains (distinct key populations).
  EXPECT_NE(baseline.second[0], baseline.second[1]);
}

TEST(ValidationWorkersDeterminismTest, ChaosReplayBitIdenticalFourChannels) {
  const auto baseline =
      RunFingerprint(1, /*with_faults=*/true, /*num_channels=*/4);
  ASSERT_EQ(baseline.second.size(), 4u);
  EXPECT_EQ(RunFingerprint(4, true, 4), baseline);
  EXPECT_EQ(RunFingerprint(8, true, 4), baseline);
}

}  // namespace
}  // namespace fabricpp
