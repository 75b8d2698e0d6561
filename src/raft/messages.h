#ifndef FABRICPP_RAFT_MESSAGES_H_
#define FABRICPP_RAFT_MESSAGES_H_

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "runtime/time.h"

namespace fabricpp::raft {

/// One replicated log entry.
struct LogEntry {
  uint64_t term = 0;
  Bytes payload;
};

/// The protocol timing knobs. Times are in microseconds and mean the same
/// thing under virtual (sim) and real (thread) clocks. Message delay is the
/// runtime transport's business, not Raft's.
struct Params {
  runtime::TimeMicros election_timeout_min = 150 * runtime::kMillisecond;
  runtime::TimeMicros election_timeout_max = 300 * runtime::kMillisecond;
  runtime::TimeMicros heartbeat_interval = 50 * runtime::kMillisecond;
};

// --- Raft RPCs (Ongaro & Ousterhout, Fig. 2) ---
struct RequestVote {
  uint64_t term;
  uint32_t candidate;
  uint64_t last_log_index;
  uint64_t last_log_term;
};
struct VoteReply {
  uint64_t term;
  uint32_t voter;
  bool granted;
};
struct AppendEntries {
  uint64_t term;
  uint32_t leader;
  uint64_t prev_log_index;
  uint64_t prev_log_term;
  std::vector<LogEntry> entries;
  uint64_t leader_commit;
};
struct AppendReply {
  uint64_t term;
  uint32_t follower;
  bool success;
  uint64_t match_index;
};

/// Every Raft RPC in one deliverable value. RPCs are moved whole between
/// replicas; the wire size is modeled separately (RaftCluster::Send's
/// `payload_bytes`), since the in-process transports never serialize.
using RaftMessage =
    std::variant<RequestVote, VoteReply, AppendEntries, AppendReply>;

/// The durable fraction of a replica's state (Raft Fig. 2 "persistent
/// state"): what must survive a crash so a restarted replica cannot vote
/// twice in the same term. The cluster owns one of these per replica as
/// simulated stable storage; RaftNode writes through on every term or vote
/// change and restores from it on restart. The log rides along with the
/// node (also persistent in real Raft; never wiped by Crash()).
struct HardState {
  uint64_t term = 0;
  std::optional<uint32_t> voted_for;
};

}  // namespace fabricpp::raft

#endif  // FABRICPP_RAFT_MESSAGES_H_
