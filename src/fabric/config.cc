#include "fabric/config.h"

#include <algorithm>

#include "common/strings.h"
#include "fabric/config_fields.h"

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
  FABRICPP_RETURN_IF_ERROR(CheckConfigFieldRanges(*this));
  const auto invalid = [](const std::string& why) {
    return Status::InvalidArgument(why);
  };
  if (client_resubmit &&
      (client_max_retries == 0 || client_max_retries > 64)) {
    return invalid("client_max_retries must be in [1, 64] with resubmission");
  }
  if (client_retry_backoff_max < client_retry_backoff_base) {
    return invalid("client_retry_backoff_max must be >= the backoff base");
  }
  if (admission_queue_depth > 0 && busy_retry_hint == 0) {
    return invalid("busy_retry_hint must be > 0 with admission control on");
  }
  if (fair_sched_quantum > 0 && admission_queue_depth == 0) {
    return invalid("fair_sched_quantum requires admission_queue_depth > 0");
  }
  if (fair_conflict_penalty > 0 && fair_sched_quantum == 0) {
    return invalid("fair_conflict_penalty requires fair_sched_quantum > 0");
  }
  if (ordering_backend == OrderingBackend::kRaft) {
    if (raft_cluster_size % 2 == 0 || raft_cluster_size > 63) {
      return invalid("raft_cluster_size must be odd and in [1, 63]");
    }
    const raft::Params& raft = raft_params;
    if (!(0 < raft.heartbeat_interval &&
          raft.heartbeat_interval < raft.election_timeout_min &&
          raft.election_timeout_min <= raft.election_timeout_max)) {
      return invalid(
          "raft_params must satisfy 0 < heartbeat_interval < "
          "election_timeout_min <= election_timeout_max");
    }
  }
  const auto mode = runtime::ParseRuntimeMode(runtime_mode);
  if (!mode.ok()) {
    return invalid(StrFormat("runtime_mode must be sim, thread or socket, "
                             "not \"%s\"", runtime_mode.c_str()));
  }
  if (*mode != runtime::RuntimeMode::kSocket) return Status::OK();
  if (ordering_backend == OrderingBackend::kRaft) {
    return invalid("the raft ordering backend does not run on sockets");
  }
  const size_t peers = static_cast<size_t>(num_orgs) * peers_per_org;
  if (peer_addresses.size() != peers ||
      std::find(peer_addresses.begin(), peer_addresses.end(), "") !=
          peer_addresses.end()) {
    return invalid(StrFormat("socket mode needs %zu peer_addresses, got %zu",
                             peers, peer_addresses.size()));
  }
  if (orderer_address.empty()) {
    return invalid("socket mode needs an orderer_address");
  }
  const uint64_t frame_block_budget =
      socket_max_frame_bytes > 65536 ? (socket_max_frame_bytes - 65536) / 2
                                     : 0;
  if (block.max_bytes > frame_block_budget) {
    return invalid("socket_max_frame_bytes must be >= 2 * block.max_bytes + "
                   "64 KiB under socket mode");
  }
  return Status::OK();
}

}  // namespace fabricpp::fabric
