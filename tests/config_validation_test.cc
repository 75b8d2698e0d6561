// Negative-test sweep over FabricConfig::Validate: every knob with a
// documented legal range gets its boundary values probed — one mutation per
// check, always starting from a known-valid base, so a failure pinpoints
// the knob and not an interaction.
#include <gtest/gtest.h>

#include "fabric/config.h"

namespace fabricpp::fabric {
namespace {

FabricConfig Base() { return FabricConfig(); }

void ExpectInvalid(FabricConfig config, const char* what) {
  const Status status = config.Validate();
  EXPECT_FALSE(status.ok()) << "expected rejection: " << what;
}

TEST(ConfigValidationTest, PresetsAreValid) {
  EXPECT_TRUE(FabricConfig().Validate().ok());
  EXPECT_TRUE(FabricConfig::Vanilla().Validate().ok());
  EXPECT_TRUE(FabricConfig::FabricPlusPlus().Validate().ok());
}

TEST(ConfigValidationTest, TopologyKnobs) {
  auto config = Base();
  config.num_orgs = 0;
  ExpectInvalid(config, "num_orgs = 0");

  config = Base();
  config.peers_per_org = 0;
  ExpectInvalid(config, "peers_per_org = 0");

  config = Base();
  config.num_channels = 0;
  ExpectInvalid(config, "num_channels = 0");

  config = Base();
  config.clients_per_channel = 0;
  ExpectInvalid(config, "clients_per_channel = 0");

  config = Base();
  config.client_fire_rate_tps = 0.0;
  ExpectInvalid(config, "client_fire_rate_tps = 0");
  config.client_fire_rate_tps = -1.0;
  ExpectInvalid(config, "client_fire_rate_tps < 0");
}

TEST(ConfigValidationTest, HardwareKnobs) {
  auto config = Base();
  config.peer_cores = 0;
  ExpectInvalid(config, "peer_cores = 0");

  config = Base();
  config.orderer_cores = 0;
  ExpectInvalid(config, "orderer_cores = 0");

  config = Base();
  config.client_machine_cores = 0;
  ExpectInvalid(config, "client_machine_cores = 0");
}

TEST(ConfigValidationTest, WorkerPoolKnobs) {
  auto config = Base();
  config.validator_workers = 0;
  ExpectInvalid(config, "validator_workers = 0");
  config.validator_workers = 257;
  ExpectInvalid(config, "validator_workers = 257");
  config.validator_workers = 256;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ConfigValidationTest, OrderingPipelineDepth) {
  auto config = Base();
  config.ordering_pipeline_depth = 0;
  ExpectInvalid(config, "ordering_pipeline_depth = 0");
  config.ordering_pipeline_depth = 65;
  ExpectInvalid(config, "ordering_pipeline_depth = 65");
  config.ordering_pipeline_depth = 64;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ConfigValidationTest, ClientRetryKnobs) {
  auto config = Base();
  config.client_resubmit = true;
  config.client_max_retries = 0;
  ExpectInvalid(config, "max_retries = 0 with resubmit on");
  config.client_resubmit = false;
  EXPECT_TRUE(config.Validate().ok()) << "off switch makes 0 legal";

  config = Base();
  config.client_max_retries = 65;
  ExpectInvalid(config, "max_retries = 65");

  config = Base();
  config.client_retry_backoff_base = 0;
  ExpectInvalid(config, "backoff_base = 0");

  config = Base();
  config.client_retry_backoff_max = config.client_retry_backoff_base - 1;
  ExpectInvalid(config, "backoff_max < backoff_base");

  config = Base();
  config.client_retry_backoff_max = 0;
  ExpectInvalid(config, "backoff_max = 0");

  config = Base();
  config.client_retry_jitter = -0.01;
  ExpectInvalid(config, "jitter < 0");
  config.client_retry_jitter = 1.01;
  ExpectInvalid(config, "jitter > 1");
  config.client_retry_jitter = 1.0;
  EXPECT_TRUE(config.Validate().ok());

  // The backoff-shape knobs are checked even with resubmission off: BUSY
  // retries use them too, and a misconfigured shape used to silently
  // degenerate into constant instant retry.
  config = Base();
  config.client_resubmit = false;
  config.client_retry_jitter = 5.0;
  ExpectInvalid(config, "jitter > 1 with resubmit off");
  config = Base();
  config.client_resubmit = false;
  config.client_retry_backoff_max = 0;
  ExpectInvalid(config, "backoff_max = 0 with resubmit off");
}

TEST(ConfigValidationTest, AdmissionControlKnobs) {
  auto config = Base();
  config.admission_queue_depth = 1048577;
  ExpectInvalid(config, "admission_queue_depth = 1048577");
  config.admission_queue_depth = 1048576;
  EXPECT_TRUE(config.Validate().ok());

  config = Base();
  config.admission_queue_depth = 64;
  config.busy_retry_hint = 0;
  ExpectInvalid(config, "busy_retry_hint = 0 with admission on");
  config.busy_retry_hint = 1;
  EXPECT_TRUE(config.Validate().ok());

  // busy_retry_hint is unchecked while admission control is off.
  config = Base();
  config.busy_retry_hint = 0;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ConfigValidationTest, FairSchedulerKnobs) {
  auto config = Base();
  config.admission_queue_depth = 64;
  config.fair_sched_quantum = 4097;
  ExpectInvalid(config, "fair_sched_quantum = 4097");
  config.fair_sched_quantum = 4096;
  EXPECT_TRUE(config.Validate().ok());

  // The fair scheduler is the drain policy of the admission queues: it
  // cannot be on while admission control is off.
  config = Base();
  config.fair_sched_quantum = 4;
  ExpectInvalid(config, "quantum > 0 without admission_queue_depth");

  config = Base();
  config.admission_queue_depth = 64;
  config.fair_sched_quantum = 4;
  config.fair_conflict_penalty = 1025;
  ExpectInvalid(config, "fair_conflict_penalty = 1025");
  config.fair_conflict_penalty = 1024;
  EXPECT_TRUE(config.Validate().ok());

  // The conflict surcharge is paid in deficit units — meaningless in FIFO
  // mode.
  config = Base();
  config.admission_queue_depth = 64;
  config.fair_conflict_penalty = 8;
  ExpectInvalid(config, "penalty > 0 without fair_sched_quantum");
}

TEST(ConfigValidationTest, TimeoutKnobs) {
  auto config = Base();
  config.client_endorsement_timeout = 0;
  ExpectInvalid(config, "endorsement_timeout = 0");

  config = Base();
  config.client_commit_timeout = 0;
  ExpectInvalid(config, "commit_timeout = 0");

  config = Base();
  config.peer_fetch_retry_interval = 0;
  ExpectInvalid(config, "peer_fetch_retry_interval = 0");
}

TEST(ConfigValidationTest, ConsensusKnobs) {
  auto config = Base();
  config.ordering_backend = OrderingBackend::kRaft;
  config.raft_cluster_size = 0;
  ExpectInvalid(config, "raft_cluster_size = 0");
  config.raft_cluster_size = 3;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ConfigValidationTest, RuntimeMode) {
  auto config = Base();
  config.runtime_mode = "sim";
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_EQ(config.RuntimeModeOrDefault(), runtime::RuntimeMode::kSim);

  config.runtime_mode = "thread";
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_EQ(config.RuntimeModeOrDefault(), runtime::RuntimeMode::kThread);

  config.runtime_mode = "threads";
  ExpectInvalid(config, "unknown runtime_mode");
  config.runtime_mode = "";
  ExpectInvalid(config, "empty runtime_mode");
}

TEST(ConfigValidationTest, RaftRunsOnSimAndThreadRuntimes) {
  // Historically raft was simulation-only; it now runs on the thread
  // runtime too (replicas on their own mailbox threads). Socket mode still
  // rejects it — see SocketModeRejectsUnsupportedFeatures.
  auto config = Base();
  config.ordering_backend = OrderingBackend::kRaft;
  config.runtime_mode = "thread";
  EXPECT_TRUE(config.Validate().ok());
  config.runtime_mode = "sim";
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ConfigValidationTest, RaftClusterSizeBounds) {
  auto config = Base();
  config.ordering_backend = OrderingBackend::kRaft;
  config.raft_cluster_size = 0;
  ExpectInvalid(config, "raft_cluster_size = 0");

  // Even clusters tolerate no more failures than the next-smaller odd one
  // and make split votes likelier — rejected rather than silently accepted.
  config.raft_cluster_size = 4;
  ExpectInvalid(config, "raft_cluster_size = 4 (even)");

  config.raft_cluster_size = 65;
  ExpectInvalid(config, "raft_cluster_size = 65");

  config.raft_cluster_size = 5;
  EXPECT_TRUE(config.Validate().ok());

  // The bounds only bind when the raft backend is selected.
  config.ordering_backend = OrderingBackend::kSolo;
  config.raft_cluster_size = 4;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ConfigValidationTest, RaftTimingKnobs) {
  auto config = Base();
  config.ordering_backend = OrderingBackend::kRaft;

  config.raft_params.heartbeat_interval = 0;
  ExpectInvalid(config, "heartbeat_interval = 0");

  config = Base();
  config.ordering_backend = OrderingBackend::kRaft;
  config.raft_params.election_timeout_min = 0;
  ExpectInvalid(config, "election_timeout_min = 0");

  config = Base();
  config.ordering_backend = OrderingBackend::kRaft;
  config.raft_params.election_timeout_max =
      config.raft_params.election_timeout_min - 1;
  ExpectInvalid(config, "election_timeout_max < election_timeout_min");

  // A heartbeat period at or above the election floor guarantees spurious
  // elections: followers time out before the next heartbeat can arrive.
  config = Base();
  config.ordering_backend = OrderingBackend::kRaft;
  config.raft_params.heartbeat_interval =
      config.raft_params.election_timeout_min;
  ExpectInvalid(config, "heartbeat_interval >= election_timeout_min");
}

TEST(ConfigValidationTest, MailboxCapacity) {
  auto config = Base();
  config.mailbox_capacity = 15;
  ExpectInvalid(config, "mailbox_capacity = 15");
  config.mailbox_capacity = 16;
  EXPECT_TRUE(config.Validate().ok());
  config.mailbox_capacity = 1048576;
  EXPECT_TRUE(config.Validate().ok());
  config.mailbox_capacity = 1048577;
  ExpectInvalid(config, "mailbox_capacity = 1048577");
}

TEST(ConfigValidationTest, ThreadClientShards) {
  auto config = Base();
  config.thread_client_shards = 0;
  ExpectInvalid(config, "thread_client_shards = 0");
  config.thread_client_shards = 257;
  ExpectInvalid(config, "thread_client_shards = 257");
  config.thread_client_shards = 256;
  EXPECT_TRUE(config.Validate().ok());
}

/// A valid socket-mode deployment: one address per peer plus the orderer.
FabricConfig SocketBase() {
  FabricConfig config;
  config.runtime_mode = "socket";
  const size_t num_peers =
      static_cast<size_t>(config.num_orgs) * config.peers_per_org;
  for (size_t i = 0; i < num_peers; ++i) {
    config.peer_addresses.push_back("127.0.0.1:" + std::to_string(7151 + i));
  }
  config.orderer_address = "127.0.0.1:7150";
  return config;
}

TEST(ConfigValidationTest, SocketModeRequiresAddresses) {
  EXPECT_TRUE(SocketBase().Validate().ok());

  auto config = SocketBase();
  config.peer_addresses.clear();
  ExpectInvalid(config, "socket mode without peer_addresses");

  config = SocketBase();
  config.peer_addresses.pop_back();
  ExpectInvalid(config, "one peer_addresses entry short");

  config = SocketBase();
  config.peer_addresses.push_back("127.0.0.1:9999");
  ExpectInvalid(config, "one peer_addresses entry too many");

  config = SocketBase();
  config.peer_addresses[0].clear();
  ExpectInvalid(config, "empty peer_addresses entry");

  config = SocketBase();
  config.orderer_address.clear();
  ExpectInvalid(config, "socket mode without orderer_address");

  // Addresses without socket mode are fine: they are simply unused.
  config = SocketBase();
  config.runtime_mode = "thread";
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ConfigValidationTest, SocketModeRejectsUnsupportedFeatures) {
  auto config = SocketBase();
  config.ordering_backend = OrderingBackend::kRaft;
  ExpectInvalid(config, "raft ordering under socket mode");
}

TEST(ConfigValidationTest, SocketTimeoutAndFrameBounds) {
  // These bound real resources, so they validate in every runtime mode.
  auto config = Base();
  config.socket_connect_timeout_ms = 0;
  ExpectInvalid(config, "socket_connect_timeout_ms = 0");
  config.socket_connect_timeout_ms = 600001;
  ExpectInvalid(config, "socket_connect_timeout_ms = 600001");
  config.socket_connect_timeout_ms = 600000;
  EXPECT_TRUE(config.Validate().ok());

  config = Base();
  config.socket_max_frame_bytes = 4095;
  ExpectInvalid(config, "socket_max_frame_bytes = 4095");
  config.socket_max_frame_bytes = (1ull << 30) + 1;
  ExpectInvalid(config, "socket_max_frame_bytes > 1 GiB");
  config.socket_max_frame_bytes = 4096;
  EXPECT_TRUE(config.Validate().ok());
  config.socket_max_frame_bytes = 1ull << 30;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ConfigValidationTest, SocketFrameBoundMustFitLargestBlock) {
  // Under socket mode the frame bound must clear 2 * block.max_bytes +
  // 64 KiB: the cutter can overshoot max_bytes by one transaction and the
  // block message adds metadata/framing on top.
  auto config = SocketBase();
  config.socket_max_frame_bytes = config.block.max_bytes;
  ExpectInvalid(config, "frame bound smaller than a block");

  config = SocketBase();
  config.socket_max_frame_bytes = 2 * config.block.max_bytes + 65535;
  ExpectInvalid(config, "frame bound one byte short of the slack");
  config.socket_max_frame_bytes = 2 * config.block.max_bytes + 65536;
  EXPECT_TRUE(config.Validate().ok());

  // Outside socket mode no frames exist, so only the absolute range
  // applies (SocketTimeoutAndFrameBounds covers it).
  config = SocketBase();
  config.runtime_mode = "sim";
  config.socket_max_frame_bytes = 4096;
  EXPECT_TRUE(config.Validate().ok());
}

}  // namespace
}  // namespace fabricpp::fabric
