#include "fabric/config.h"

namespace fabricpp::fabric {

FabricConfig FabricConfig::Vanilla() {
  FabricConfig config;
  config.enable_reordering = false;
  config.enable_early_abort_sim = false;
  config.enable_early_abort_ordering = false;
  config.concurrency = ConcurrencyMode::kCoarseLock;
  // Vanilla Fabric has no unique-keys batch condition (paper §5.1.2 adds
  // it in Fabric++).
  config.block.max_unique_keys = 0;
  return config;
}

FabricConfig FabricConfig::FabricPlusPlus() {
  FabricConfig config;
  config.enable_reordering = true;
  config.enable_early_abort_sim = true;
  config.enable_early_abort_ordering = true;
  config.concurrency = ConcurrencyMode::kFineGrained;
  config.block.max_unique_keys = 16384;
  return config;
}

runtime::RuntimeMode FabricConfig::RuntimeModeOrDefault() const {
  const auto mode = runtime::ParseRuntimeMode(runtime_mode);
  return mode.ok() ? *mode : runtime::RuntimeMode::kSim;
}

Status FabricConfig::Validate() const {
  if (num_orgs == 0 || peers_per_org == 0) {
    return Status::InvalidArgument("topology needs at least one org/peer");
  }
  if (num_channels == 0) {
    return Status::InvalidArgument("num_channels must be > 0");
  }
  if (clients_per_channel == 0) {
    return Status::InvalidArgument("clients_per_channel must be > 0");
  }
  if (client_fire_rate_tps <= 0.0) {
    return Status::InvalidArgument("client_fire_rate_tps must be > 0");
  }
  if (peer_cores == 0 || orderer_cores == 0 || client_machine_cores == 0) {
    return Status::InvalidArgument("every machine needs at least one core");
  }
  if (validator_workers == 0 || validator_workers > 256) {
    return Status::InvalidArgument(
        "validator_workers must be in [1, 256]: it counts host threads "
        "(including the committing one) running real signature checks");
  }
  if (ordering_pipeline_depth == 0 || ordering_pipeline_depth > 64) {
    return Status::InvalidArgument(
        "ordering_pipeline_depth must be in [1, 64]: it bounds the batches "
        "concurrently inside the orderer's reorder stage per channel");
  }
  if (client_resubmit) {
    if (client_max_retries == 0) {
      return Status::InvalidArgument(
          "client_max_retries must be >= 1 when client_resubmit is on; set "
          "client_resubmit=false to disable resubmission");
    }
    if (client_max_retries > 64) {
      return Status::InvalidArgument(
          "client_max_retries > 64: the exponential backoff shift would "
          "overflow; cap the retry budget");
    }
  }
  // The backoff shape is validated unconditionally: BUSY-retry delays use
  // it even when client_resubmit is off, and a zero/inverted range would
  // silently degenerate exponential backoff into constant instant retry.
  if (client_retry_backoff_base == 0) {
    return Status::InvalidArgument(
        "client_retry_backoff_base must be > 0 (instant resubmission "
        "causes retry storms under faults and overload)");
  }
  if (client_retry_backoff_max == 0 ||
      client_retry_backoff_max < client_retry_backoff_base) {
    return Status::InvalidArgument(
        "client_retry_backoff_max must be >= client_retry_backoff_base > 0 "
        "(a zero or inverted cap degenerates backoff to constant retry)");
  }
  if (client_retry_jitter < 0.0 || client_retry_jitter > 1.0) {
    return Status::InvalidArgument("client_retry_jitter must be in [0, 1]");
  }
  if (admission_queue_depth > 1048576) {
    return Status::InvalidArgument(
        "admission_queue_depth must be in [0, 1048576] (0 disables "
        "admission control)");
  }
  if (admission_queue_depth > 0 && busy_retry_hint == 0) {
    return Status::InvalidArgument(
        "busy_retry_hint must be > 0 when admission control is on: a zero "
        "hint makes every BUSY an instant-retry storm");
  }
  if (fair_sched_quantum > 4096) {
    return Status::InvalidArgument(
        "fair_sched_quantum must be in [0, 4096] (0 disables the fair "
        "scheduler)");
  }
  if (fair_sched_quantum > 0 && admission_queue_depth == 0) {
    return Status::InvalidArgument(
        "fair_sched_quantum requires admission_queue_depth > 0: the fair "
        "scheduler is the drain policy of the orderer's bounded admission "
        "queues");
  }
  if (fair_conflict_penalty > 1024) {
    return Status::InvalidArgument(
        "fair_conflict_penalty must be in [0, 1024]");
  }
  if (fair_conflict_penalty > 0 && fair_sched_quantum == 0) {
    return Status::InvalidArgument(
        "fair_conflict_penalty requires fair_sched_quantum > 0: the "
        "surcharge is paid in deficit units of the fair scheduler");
  }
  if (client_endorsement_timeout == 0 || client_commit_timeout == 0) {
    return Status::InvalidArgument(
        "client timeouts must be > 0 (a zero timeout aborts every proposal "
        "immediately)");
  }
  if (peer_fetch_retry_interval == 0) {
    return Status::InvalidArgument("peer_fetch_retry_interval must be > 0");
  }
  if (ordering_backend == OrderingBackend::kRaft) {
    if (raft_cluster_size == 0) {
      return Status::InvalidArgument("raft_cluster_size must be > 0");
    }
    if (raft_cluster_size % 2 == 0) {
      return Status::InvalidArgument(
          "raft_cluster_size must be odd: an even cluster tolerates no more "
          "failures than the next-smaller odd one but must reach a larger "
          "quorum (size/2 + 1) to commit");
    }
    if (raft_cluster_size > 63) {
      return Status::InvalidArgument("raft_cluster_size must be <= 63");
    }
    if (raft_params.heartbeat_interval == 0) {
      return Status::InvalidArgument(
          "raft_params.heartbeat_interval must be > 0");
    }
    if (raft_params.election_timeout_min == 0 ||
        raft_params.election_timeout_max < raft_params.election_timeout_min) {
      return Status::InvalidArgument(
          "raft_params election timeouts must satisfy 0 < "
          "election_timeout_min <= election_timeout_max");
    }
    if (raft_params.heartbeat_interval >= raft_params.election_timeout_min) {
      return Status::InvalidArgument(
          "raft_params.heartbeat_interval must be < election_timeout_min: a "
          "heartbeat period at or above the election floor makes followers "
          "time out and depose a healthy leader");
    }
  }
  const auto runtime_parsed = runtime::ParseRuntimeMode(runtime_mode);
  if (!runtime_parsed.ok()) {
    return Status::InvalidArgument(
        "runtime_mode must be \"sim\", \"thread\" or \"socket\"; got \"" +
        runtime_mode + "\"");
  }
  if (*runtime_parsed == runtime::RuntimeMode::kSocket &&
      ordering_backend == OrderingBackend::kRaft) {
    return Status::InvalidArgument(
        "the raft ordering backend is not supported under "
        "runtime_mode=\"socket\" yet (raft RPCs do not ride the wire "
        "protocol); use runtime_mode=\"sim\"/\"thread\" or "
        "ordering_backend=kSolo");
  }
  if (*runtime_parsed == runtime::RuntimeMode::kSocket) {
    const size_t want_peers =
        static_cast<size_t>(num_orgs) * static_cast<size_t>(peers_per_org);
    if (peer_addresses.size() != want_peers) {
      return Status::InvalidArgument(
          "runtime_mode=\"socket\" needs one peer_addresses entry per peer "
          "(num_orgs * peers_per_org = " +
          std::to_string(want_peers) + "; got " +
          std::to_string(peer_addresses.size()) +
          "): every process dials and binds from the same cluster list");
    }
    for (const std::string& addr : peer_addresses) {
      if (addr.empty()) {
        return Status::InvalidArgument(
            "peer_addresses entries must be non-empty \"host:port\" strings");
      }
    }
    if (orderer_address.empty()) {
      return Status::InvalidArgument(
          "runtime_mode=\"socket\" requires orderer_address: peers and "
          "clients must know where the ordering service listens");
    }
    // The batch cutter cuts *after* the transaction that crosses
    // block.max_bytes, so a cut block can overshoot the bound by one
    // transaction (itself up to ~max_bytes), and the BlockMsg adds header,
    // metadata and framing on top. 2x + 64 KiB covers all of it; a block
    // frame over the receiver bound would be shed at the sender (and the
    // peer would stall waiting for it).
    const uint64_t frame_block_budget =
        socket_max_frame_bytes > 65536 ? (socket_max_frame_bytes - 65536) / 2
                                       : 0;
    if (block.max_bytes > frame_block_budget) {
      return Status::InvalidArgument(
          "socket_max_frame_bytes must be >= 2 * block.max_bytes + 64 KiB "
          "under runtime_mode=\"socket\": the largest block the orderer can "
          "cut (bound overshoot included) must fit in one wire frame; got " +
          std::to_string(socket_max_frame_bytes) + " with block.max_bytes=" +
          std::to_string(block.max_bytes));
    }
  }
  if (socket_connect_timeout_ms == 0 || socket_connect_timeout_ms > 600000) {
    return Status::InvalidArgument(
        "socket_connect_timeout_ms must be in [1, 600000]");
  }
  if (socket_max_frame_bytes < 4096 ||
      socket_max_frame_bytes > (1ull << 30)) {
    return Status::InvalidArgument(
        "socket_max_frame_bytes must be in [4096, 1 GiB]: it bounds one "
        "length-framed wire message, so it must exceed the largest block "
        "the orderer can cut");
  }
  if (mailbox_capacity < 16 || mailbox_capacity > 1048576) {
    return Status::InvalidArgument(
        "mailbox_capacity must be in [16, 1048576]: it bounds each node's "
        "mailbox under the thread runtime");
  }
  if (thread_client_shards == 0 || thread_client_shards > 256) {
    return Status::InvalidArgument(
        "thread_client_shards must be in [1, 256]: it counts the endpoint "
        "threads the client machine is sharded across");
  }
  return Status::OK();
}

}  // namespace fabricpp::fabric
