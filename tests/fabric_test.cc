// Integration tests: the full simulated Fabric network, vanilla and
// Fabric++, end to end.

#include <gtest/gtest.h>

#include "chaincode/builtin_chaincodes.h"
#include "fabric/network.h"
#include "node/local_mesh.h"
#include "proto/wire_format.h"
#include "peer/endorser.h"
#include "workload/custom.h"
#include "workload/smallbank.h"

namespace fabricpp::fabric {
namespace {

using workload::CustomConfig;
using workload::CustomWorkload;
using workload::SmallbankConfig;
using workload::SmallbankWorkload;

FabricConfig QuickVanilla() {
  FabricConfig config = FabricConfig::Vanilla();
  config.block.max_transactions = 64;
  config.client_fire_rate_tps = 200;
  return config;
}

FabricConfig QuickPlusPlus() {
  FabricConfig config = FabricConfig::FabricPlusPlus();
  config.block.max_transactions = 64;
  config.client_fire_rate_tps = 200;
  return config;
}

SmallbankConfig SmallSmallbank() {
  SmallbankConfig wl;
  wl.num_users = 500;
  wl.prob_write = 0.95;
  wl.zipf_s = 0.0;
  return wl;
}

/// Routes a test's own LocalMesh to a network's nodes.
class NetworkDirectory : public node::NodeDirectory {
 public:
  explicit NetworkDirectory(FabricNetwork* net) : net_(net) {}
  size_t num_peers() const override { return net_->num_peers(); }
  node::PeerNode& peer(uint32_t index) override { return net_->peer(index); }
  node::OrdererNode& orderer() override { return net_->orderer(); }
  size_t num_clients() const override { return net_->num_clients(); }
  node::ClientNode& client(uint32_t index) override {
    return net_->client(index);
  }
  node::ClientNode* FindClient(const std::string&) override { return nullptr; }
  std::vector<uint32_t> EndorsersFor(uint64_t) override { return {}; }
  const std::string& default_policy_id() const override {
    return net_->default_policy_id();
  }
  bool IsObserver(const node::PeerNode&) const override { return false; }

 private:
  FabricNetwork* net_;
};

TEST(LocalMeshTest, BroadcastCountsOneFramePerPeer) {
  // The sim never runs the posted deliveries here: only the measurement
  // is under test. Its figures feed wire.framed_bytes_per_tx and
  // wire.messages_per_tx.
  SmallbankWorkload wl(SmallSmallbank());
  FabricNetwork net(QuickPlusPlus(), &wl);
  NetworkDirectory directory(&net);
  Metrics metrics;
  node::LocalMesh mesh(&metrics, &directory, &net.runtime(),
                       /*measure_wire_bytes=*/true);
  auto block = std::make_shared<proto::Block>();
  block->header.number = 1;
  for (uint32_t i = 0; i < 3; ++i) {
    proto::Transaction tx;
    tx.tx_id = "tx" + std::to_string(i);
    tx.client = "client_c0_0";
    tx.chaincode = "smallbank";
    tx.rwset.reads.push_back({"c_" + std::to_string(i), proto::kNilVersion});
    tx.rwset.writes.push_back({"c_" + std::to_string(i), "100", false});
    block->transactions.push_back(tx);
  }
  block->SealDataHash();
  constexpr uint64_t kModeled = 1000;
  mesh.BroadcastBlock(net.orderer().endpoint_for(0), 0, block, kModeled);

  const TransportCounters counters = metrics.transport_counters();
  const uint64_t frame =
      proto::FramedSize(proto::BlockMsg{0, *block}.Encode().size());
  EXPECT_EQ(net.num_peers(), 4u);
  EXPECT_EQ(counters.messages, 4u);
  EXPECT_EQ(counters.framed_bytes, 4 * frame);
  EXPECT_EQ(counters.framed_bytes, 4u * 232);
  EXPECT_EQ(counters.modeled_bytes, 4 * kModeled);
}

TEST(MeshTest, ClientIndexOfInvertsClientNameFor) {
  FabricConfig config = QuickPlusPlus();
  config.num_channels = 3;
  config.clients_per_channel = 12;
  for (uint32_t c = 0; c < config.num_channels; ++c) {
    for (uint32_t i = 0; i < config.clients_per_channel; ++i) {
      EXPECT_EQ(node::ClientIndexOf(node::ClientNameFor(c, i), config),
                c * config.clients_per_channel + i);
    }
  }
  // Names of no client of this cluster: out of range, not canonical, or
  // not a client name at all (an external submitter).
  for (const char* name :
       {"client_c3_0", "client_c0_12", "client_c4294967296_0", "client_c01_1",
        "client_c1_01", "client_c_1", "client_c1_", "client_c1", "client_c1_1x",
        "client_c1_1_1", "client_c-1_1", "evil", ""}) {
    EXPECT_EQ(node::ClientIndexOf(name, config), std::nullopt) << name;
  }
}

TEST(FabricConfigTest, ValidateAcceptsDefaultsAndRejectsBadRetryKnobs) {
  FabricConfig config = FabricConfig::Vanilla();
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_TRUE(FabricConfig::FabricPlusPlus().Validate().ok());

  config.client_max_retries = 0;
  EXPECT_FALSE(config.Validate().ok());  // 0 retries with resubmit on.
  config.client_resubmit = false;
  EXPECT_TRUE(config.Validate().ok());  // Off switch makes 0 legal.

  config = FabricConfig::Vanilla();
  config.client_max_retries = 65;  // Backoff shift would overflow.
  EXPECT_FALSE(config.Validate().ok());

  config = FabricConfig::Vanilla();
  config.client_retry_backoff_base = 0;  // Instant retries: storms.
  EXPECT_FALSE(config.Validate().ok());

  config = FabricConfig::Vanilla();
  config.client_retry_backoff_max = config.client_retry_backoff_base - 1;
  EXPECT_FALSE(config.Validate().ok());

  config = FabricConfig::Vanilla();
  config.client_retry_jitter = 1.5;
  EXPECT_FALSE(config.Validate().ok());

  config = FabricConfig::Vanilla();
  config.client_commit_timeout = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(FabricNetworkTest, VanillaCommitsTransactions) {
  SmallbankWorkload workload(SmallSmallbank());
  FabricNetwork network(QuickVanilla(), &workload);
  const RunReport report = network.RunFor(3 * sim::kSecond);
  EXPECT_GT(report.successful, 100u);
  EXPECT_GT(report.blocks_committed, 2u);
  // Ledger integrity on every peer.
  for (uint32_t p = 0; p < network.num_peers(); ++p) {
    EXPECT_TRUE(network.peer(p).ledger(0).VerifyChain().ok()) << "peer " << p;
  }
}

TEST(FabricNetworkTest, AllPeersConverge) {
  SmallbankWorkload workload(SmallSmallbank());
  FabricNetwork network(QuickVanilla(), &workload);
  network.RunFor(3 * sim::kSecond);
  network.RunUntilIdle();  // Drain in-flight blocks.
  // Every peer must hold the same chain and the same state.
  const ledger::Ledger& reference = network.peer(0).ledger(0);
  for (uint32_t p = 1; p < network.num_peers(); ++p) {
    const ledger::Ledger& other = network.peer(p).ledger(0);
    ASSERT_EQ(reference.Height(), other.Height()) << "peer " << p;
    for (uint64_t b = 0; b < reference.Height(); ++b) {
      EXPECT_EQ((*reference.GetBlock(b))->block.header.Hash(),
                (*other.GetBlock(b))->block.header.Hash())
          << "peer " << p << " block " << b;
    }
  }
  // State convergence: same number of keys, spot-check versions.
  const statedb::StateDb& ref_db = network.peer(0).state_db(0);
  for (uint32_t p = 1; p < network.num_peers(); ++p) {
    const statedb::StateDb& db = network.peer(p).state_db(0);
    EXPECT_EQ(ref_db.NumKeys(), db.NumKeys());
    ref_db.ForEach([&](const std::string& key,
                       const statedb::VersionedValue& vv) {
      const auto other = db.Get(key);
      ASSERT_TRUE(other.ok()) << key;
      EXPECT_EQ(other->value, vv.value) << key;
      EXPECT_EQ(other->version, vv.version) << key;
    });
  }
}

TEST(FabricNetworkTest, DeterministicAcrossRuns) {
  SmallbankWorkload workload(SmallSmallbank());
  RunReport first, second;
  {
    FabricNetwork network(QuickPlusPlus(), &workload);
    first = network.RunFor(2 * sim::kSecond);
  }
  {
    FabricNetwork network(QuickPlusPlus(), &workload);
    second = network.RunFor(2 * sim::kSecond);
  }
  EXPECT_EQ(first.successful, second.successful);
  EXPECT_EQ(first.failed, second.failed);
  EXPECT_EQ(first.blocks_committed, second.blocks_committed);
}

TEST(FabricNetworkTest, FabricPlusPlusBeatsVanillaUnderContention) {
  // Hot-key custom workload: heavy within-block conflicts.
  CustomConfig wl;
  wl.num_accounts = 1000;
  wl.rw_ops = 8;
  wl.hot_read_prob = 0.4;
  wl.hot_write_prob = 0.1;
  wl.hot_set_fraction = 0.01;
  CustomWorkload workload(wl);

  FabricConfig vanilla = QuickVanilla();
  FabricConfig plusplus = QuickPlusPlus();
  vanilla.block.max_transactions = 256;
  plusplus.block.max_transactions = 256;

  RunReport vanilla_report, plusplus_report;
  {
    FabricNetwork network(vanilla, &workload);
    vanilla_report = network.RunFor(5 * sim::kSecond, sim::kSecond);
  }
  {
    FabricNetwork network(plusplus, &workload);
    plusplus_report = network.RunFor(5 * sim::kSecond, sim::kSecond);
  }
  EXPECT_GT(plusplus_report.successful, vanilla_report.successful)
      << "vanilla: " << vanilla_report.ToString()
      << "\nfabric++: " << plusplus_report.ToString();
  // Vanilla must show MVCC aborts under this contention.
  EXPECT_GT(vanilla_report.aborts[static_cast<int>(TxOutcome::kAbortMvcc)],
            0u);
}

TEST(FabricNetworkTest, SingleProposalCommits) {
  SmallbankWorkload workload(SmallSmallbank());
  FabricNetwork network(QuickVanilla(), &workload);
  network.metrics().SetWindow(0, ~0ULL);
  network.SubmitProposal(0, 0, {"deposit_checking", "7", "100"});
  network.RunUntilIdle();
  EXPECT_EQ(network.metrics().successful(), 1u);
  // The deposit must be visible on every peer.
  const std::string key = chaincode::SmallbankChaincode::CheckingKey(7);
  std::string reference;
  for (uint32_t p = 0; p < network.num_peers(); ++p) {
    const auto value = network.peer(p).state_db(0).Get(key);
    ASSERT_TRUE(value.ok());
    EXPECT_GT(value->version.block_num, 0u);
    if (p == 0) {
      reference = value->value;
    } else {
      EXPECT_EQ(value->value, reference);
    }
  }
}

TEST(FabricNetworkTest, TamperedTransactionRejected) {
  // Appendix A.3.1: a malicious client alters the write set after
  // endorsement; validators recompute the signatures and reject.
  SmallbankWorkload workload(SmallSmallbank());
  FabricNetwork network(QuickVanilla(), &workload);
  network.metrics().SetWindow(0, ~0ULL);

  // Endorse honestly via the peer's endorser logic.
  proto::Proposal proposal;
  proposal.proposal_id = 999;
  proposal.client = "mallory";
  proposal.channel = "ch0";
  proposal.chaincode = "smallbank";
  proposal.args = {"deposit_checking", "3", "50"};
  peer::Endorser endorser_a("A1", "A", network.config().seed,
                            &network.registry());
  peer::Endorser endorser_b("B1", "B", network.config().seed,
                            &network.registry());
  const auto resp_a =
      endorser_a.Endorse(proposal, network.default_policy_id(),
                         network.peer(0).state_db(0), false);
  const auto resp_b =
      endorser_b.Endorse(proposal, network.default_policy_id(),
                         network.peer(2).state_db(0), false);
  ASSERT_TRUE(resp_a.ok());
  ASSERT_TRUE(resp_b.ok());

  proto::Transaction tx;
  tx.proposal_id = proposal.proposal_id;
  tx.client = proposal.client;
  tx.channel = proposal.channel;
  tx.chaincode = proposal.chaincode;
  tx.policy_id = network.default_policy_id();
  tx.rwset = resp_a->rwset;
  // Tamper: divert the deposit to a much larger amount.
  ASSERT_FALSE(tx.rwset.writes.empty());
  tx.rwset.writes[0].value = "9999999";
  tx.endorsements = {resp_a->endorsement, resp_b->endorsement};
  tx.ComputeTxId(proposal);
  const std::string tx_id = tx.tx_id;

  network.SubmitExternalTransaction(0, tx);
  network.RunUntilIdle();

  const auto code = network.peer(0).ledger(0).GetValidationCode(tx_id);
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(*code, proto::TxValidationCode::kEndorsementPolicyFailure);
  // The tampered value must not be in the state.
  const auto value = network.peer(0).state_db(0).Get(
      chaincode::SmallbankChaincode::CheckingKey(3));
  ASSERT_TRUE(value.ok());
  EXPECT_NE(value->value, "9999999");
}

TEST(FabricNetworkTest, RestartedPeerAnswersBusyUntilCaughtUp) {
  // Peer 1 crashes for a second and misses blocks. Until the orderer's
  // chain info shows it at parity it answers proposals with BUSY instead of
  // endorsing from stale state; afterwards it endorses again. Admission
  // control is off, so every BUSY is a catch-up refusal.
  SmallbankWorkload workload(SmallSmallbank());
  FabricConfig config = QuickPlusPlus();
  ASSERT_EQ(config.admission_queue_depth, 0u);
  FabricNetwork network(config, &workload);
  network.SchedulePeerCrash(1, 1 * sim::kSecond, 2 * sim::kSecond);
  RunReport before_restart;
  RunReport after_catch_up;
  uint64_t height_after_catch_up = 0;
  network.env().ScheduleAt(2 * sim::kSecond - 1, [&]() {
    before_restart = network.metrics().Report();
  });
  network.env().ScheduleAt(3 * sim::kSecond, [&]() {
    after_catch_up = network.metrics().Report();
    height_after_catch_up = network.peer(0).ledger(0).Height();
  });
  const RunReport report = network.RunFor(5 * sim::kSecond);

  EXPECT_EQ(before_restart.endorser_busy, 0u);
  EXPECT_EQ(after_catch_up.peer_recoveries, 1u);
  EXPECT_GT(after_catch_up.endorser_busy, 0u);
  EXPECT_EQ(report.endorser_busy, after_catch_up.endorser_busy);

  // Blocks committed after the catch-up carry peer 1's endorsements.
  const ledger::Ledger& observer = network.peer(0).ledger(0);
  ASSERT_GT(observer.Height(), height_after_catch_up);
  uint64_t endorsed_by_peer1 = 0;
  for (uint64_t n = height_after_catch_up; n < observer.Height(); ++n) {
    const proto::Block& block = (*observer.GetBlock(n))->block;
    for (const proto::Transaction& tx : block.transactions) {
      for (const proto::Endorsement& e : tx.endorsements) {
        endorsed_by_peer1 += e.peer == network.peer(1).name() ? 1 : 0;
      }
    }
  }
  EXPECT_GT(endorsed_by_peer1, 0u);
}

TEST(FabricNetworkTest, RestartedPeerCatchesUpWithBlocksFasterThanItsTimer) {
  // The orderer answers a fetch with at most 16 blocks, and a peer retries
  // a fetch every peer_fetch_retry_interval (500 ms): 32 blocks/s. Blocks
  // here come faster than that, so a peer that fetched again only on its
  // timer would never reach the tip. It asks again as soon as a fetch has
  // moved its frontier.
  SmallbankWorkload workload(SmallSmallbank());
  FabricConfig config = QuickPlusPlus();
  config.block.max_transactions = 4;
  config.cost.block_fixed_order = 2000;
  config.cost.block_fixed_commit = 2000;
  FabricNetwork network(config, &workload);
  network.SchedulePeerCrash(1, 1 * sim::kSecond, 3 * sim::kSecond);
  uint64_t behind_at_restart = 0;
  network.env().ScheduleAt(3 * sim::kSecond, [&]() {
    behind_at_restart = network.peer(0).ledger(0).Height() -
                        network.peer(1).ledger(0).Height();
  });
  const RunReport report = network.RunFor(5 * sim::kSecond);

  EXPECT_GT(network.peer(0).ledger(0).Height(), 5u * 32u);
  EXPECT_GT(behind_at_restart, 2u * 32u);
  EXPECT_EQ(report.peer_recoveries, 1u);
  EXPECT_LT(report.recovery_max_ms, 500.0);
}

TEST(FabricNetworkTest, MultiChannelIsolated) {
  SmallbankWorkload workload(SmallSmallbank());
  FabricConfig config = QuickVanilla();
  config.num_channels = 2;
  config.clients_per_channel = 2;
  FabricNetwork network(config, &workload);
  const RunReport report = network.RunFor(2 * sim::kSecond);
  EXPECT_GT(report.successful, 50u);
  network.RunUntilIdle();
  // Both channels advanced their own chains.
  EXPECT_GT(network.peer(0).ledger(0).Height(), 1u);
  EXPECT_GT(network.peer(0).ledger(1).Height(), 1u);
}


TEST(FabricNetworkTest, RaftOrderingBackendCommits) {
  // The Raft-backed ordering service (Fabric >= 1.4's etcdraft profile)
  // must produce the same chain semantics as solo, with consensus latency.
  SmallbankWorkload workload(SmallSmallbank());
  FabricConfig config = QuickVanilla();
  config.ordering_backend = OrderingBackend::kRaft;
  config.raft_cluster_size = 3;
  FabricNetwork network(config, &workload);
  const RunReport report = network.RunFor(3 * sim::kSecond);
  // Raft heartbeats keep the event queue alive forever; drain with a
  // bounded run instead of RunUntilIdle.
  network.env().RunUntil(network.env().Now() + 2 * sim::kSecond);
  EXPECT_GT(report.successful, 50u);
  for (uint32_t p = 0; p < network.num_peers(); ++p) {
    EXPECT_TRUE(network.peer(p).ledger(0).VerifyChain().ok()) << "peer " << p;
  }
  // All peers converge on the same chain.
  const auto& reference = network.peer(0).ledger(0);
  for (uint32_t p = 1; p < network.num_peers(); ++p) {
    ASSERT_EQ(reference.Height(), network.peer(p).ledger(0).Height());
  }
}

TEST(RaftConsensusTest, BlockIdentityHasNoCrossChannelCollisions) {
  // Regression for the historical pending-key packing
  // `(channel << 48) | number`, which aliased distinct blocks: a commit for
  // one channel could erase (and deliver) another channel's pending block.
  // The identity is now a (channel, number) struct carried as 12 payload
  // bytes; every aliasing pair must encode distinctly and round-trip.
  using fabric::RaftConsensus;
  const RaftConsensus::BlockId collisions[][2] = {
      // Old packing: both sides packed to the same uint64.
      {{1, 0}, {0, uint64_t{1} << 48}},
      {{2, 5}, {0, (uint64_t{2} << 48) | 5}},
      {{7, uint64_t{1} << 48}, {8, 0}},
  };
  for (const auto& pair : collisions) {
    const Bytes a = RaftConsensus::EncodePayload(pair[0], 0);
    const Bytes b = RaftConsensus::EncodePayload(pair[1], 0);
    EXPECT_NE(a, b);
    RaftConsensus::BlockId decoded;
    ASSERT_TRUE(RaftConsensus::DecodePayload(a, &decoded));
    EXPECT_EQ(decoded, pair[0]);
    ASSERT_TRUE(RaftConsensus::DecodePayload(b, &decoded));
    EXPECT_EQ(decoded, pair[1]);
  }
  // The payload is padded to the block's wire size (replication cost
  // model); the identity survives the padding.
  const RaftConsensus::BlockId id{3, 12345};
  const Bytes padded = RaftConsensus::EncodePayload(id, 4096);
  EXPECT_EQ(padded.size(), 4096u);
  RaftConsensus::BlockId decoded;
  ASSERT_TRUE(RaftConsensus::DecodePayload(padded, &decoded));
  EXPECT_EQ(decoded, id);
  // A payload too short to carry an identity is rejected, not misread.
  EXPECT_FALSE(RaftConsensus::DecodePayload(Bytes(11, 0), &decoded));
}

TEST(FabricNetworkTest, RaftBackendDeterministic) {
  SmallbankWorkload workload(SmallSmallbank());
  FabricConfig config = QuickPlusPlus();
  config.ordering_backend = OrderingBackend::kRaft;
  RunReport first, second;
  {
    FabricNetwork network(config, &workload);
    first = network.RunFor(2 * sim::kSecond);
  }
  {
    FabricNetwork network(config, &workload);
    second = network.RunFor(2 * sim::kSecond);
  }
  EXPECT_EQ(first.successful, second.successful);
  EXPECT_EQ(first.blocks_committed, second.blocks_committed);
}

TEST(FabricNetworkTest, BlankWorkloadMatchesMeaningfulThroughput) {
  // The Figure 1 observation: blank transactions commit at roughly the
  // same rate as meaningful ones because crypto + networking dominate.
  workload::BlankWorkload blank;
  SmallbankWorkload meaningful(SmallSmallbank());
  FabricConfig config = QuickVanilla();
  // Retries would inflate the meaningful totals (blank never aborts); the
  // comparison is about raw pipeline capacity.
  config.client_resubmit = false;
  RunReport blank_report, meaningful_report;
  {
    FabricNetwork network(config, &blank);
    blank_report = network.RunFor(3 * sim::kSecond, sim::kSecond);
  }
  {
    FabricNetwork network(config, &meaningful);
    meaningful_report = network.RunFor(3 * sim::kSecond, sim::kSecond);
  }
  const double blank_total =
      blank_report.successful_tps + blank_report.failed_tps;
  const double meaningful_total =
      meaningful_report.successful_tps + meaningful_report.failed_tps;
  EXPECT_NEAR(blank_total / meaningful_total, 1.0, 0.15);
}

}  // namespace
}  // namespace fabricpp::fabric
