#ifndef FABRICPP_RAFT_RAFT_NODE_H_
#define FABRICPP_RAFT_RAFT_NODE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "raft/messages.h"
#include "runtime/runtime.h"

namespace fabricpp::raft {

/// Raft replica role.
enum class Role { kFollower = 0, kCandidate, kLeader };
std::string_view RoleToString(Role role);

class RaftCluster;

/// A single Raft replica (Ongaro & Ousterhout, "In Search of an
/// Understandable Consensus Algorithm", 2014) written against the runtime
/// seam: timers go through its endpoint's runtime::Clock and RPCs through
/// RaftCluster::Send onto the runtime transport, so the same state machine
/// runs inside the deterministic discrete-event simulation and on real OS
/// threads (one mailbox thread per replica).
///
/// Implements leader election with randomized timeouts, log replication
/// with the AppendEntries consistency check, commit-index advancement by
/// majority match, and follower log repair. This is the consensus substrate
/// behind the crash-fault-tolerant ordering-service option — Fabric's
/// ordering service is such a cluster (Kafka in 1.2, Raft from 1.4); the
/// paper treats it as a trustworthy black box (§2.1).
///
/// Thread-safety: every entry point (Handle, Propose, timers, Crash/Resume)
/// must run on the replica's own endpoint context — the sim event loop, or
/// the replica's mailbox thread under ThreadRuntime. The node itself takes
/// no locks.
///
/// Persistence: (current_term, voted_for) are written through to a
/// HardState on every change and restored on Resume(), so a replica that
/// crashes inside a chaos window cannot vote twice in the same term. The
/// log also survives crashes (persistent in real Raft); snapshotting/log
/// compaction remain out of scope.
class RaftNode {
 public:
  /// `on_commit(index, payload)` fires on every node, in log order, exactly
  /// once per committed entry, on the node's own execution context.
  using CommitCallback = std::function<void(uint64_t, const Bytes&)>;

  RaftNode(uint32_t id, uint32_t cluster_size, uint64_t seed,
           const Params* params, runtime::Clock* clock, RaftCluster* cluster,
           HardState* stable);

  uint32_t id() const { return id_; }
  Role role() const { return role_; }
  uint64_t current_term() const { return current_term_; }
  std::optional<uint32_t> voted_for() const { return voted_for_; }
  uint64_t commit_index() const { return commit_index_; }
  const std::vector<LogEntry>& log() const { return log_; }
  bool stopped() const { return stopped_; }

  void set_commit_callback(CommitCallback cb) { on_commit_ = std::move(cb); }

  /// Test hook: when false, Resume() does not restore (term, vote) from
  /// stable storage — reproducing the historical double-vote gap the
  /// persistence path closes.
  void set_persist_hard_state(bool persist) { persist_hard_state_ = persist; }

  /// Client entry point: appends to the leader's log and starts
  /// replication. Returns the assigned (1-based) log index, or nullopt on
  /// non-leaders — callers retry (RaftCluster::ProposeOnAll offers the
  /// entry to every replica).
  std::optional<uint64_t> Propose(Bytes payload);

  /// Crash simulation: a stopped node ignores timers and messages.
  void Stop() { stopped_ = true; }
  void Resume();

  /// Crash is Stop plus loss of volatile memory: candidate vote tallies,
  /// leader replication indices, and the in-memory (term, vote) are gone
  /// when the process dies. Restart via Resume(), which reloads (term,
  /// vote) from the HardState ("stable storage") and rejoins as a follower.
  void Crash();

  // --- Message handlers (invoked by RaftCluster on delivery) ---
  using RequestVote = raft::RequestVote;
  using VoteReply = raft::VoteReply;
  using AppendEntries = raft::AppendEntries;
  using AppendReply = raft::AppendReply;

  void Handle(const RequestVote& msg);
  void Handle(const VoteReply& msg);
  void Handle(const AppendEntries& msg);
  void Handle(const AppendReply& msg);

  /// Arms the initial election timer (called once by the cluster, on this
  /// replica's execution context).
  void Start();

 private:
  void BecomeFollower(uint64_t term);
  void StartElection();
  void BecomeLeader();
  void BroadcastAppendEntries();
  void SendAppendEntriesTo(uint32_t peer);
  void AdvanceCommitIndex();
  void ApplyCommitted();
  void ResetElectionTimer();
  runtime::TimeMicros ElectionTimeout();
  void PersistHardState();

  uint64_t LastLogIndex() const { return log_.size(); }
  uint64_t LastLogTerm() const { return log_.empty() ? 0 : log_.back().term; }
  /// Term of the entry at 1-based `index` (0 for index 0).
  uint64_t TermAt(uint64_t index) const {
    return index == 0 ? 0 : log_[index - 1].term;
  }

  uint32_t id_;
  uint32_t cluster_size_;
  Rng rng_;
  const Params* params_;
  runtime::Clock* clock_;
  RaftCluster* cluster_;
  HardState* stable_;
  bool persist_hard_state_ = true;

  Role role_ = Role::kFollower;
  bool stopped_ = false;
  uint64_t current_term_ = 0;
  std::optional<uint32_t> voted_for_;
  std::vector<LogEntry> log_;  // 1-based indexing via helpers.
  uint64_t commit_index_ = 0;
  uint64_t last_applied_ = 0;

  // Candidate state.
  uint32_t votes_received_ = 0;

  // Leader state (1-based indices).
  std::vector<uint64_t> next_index_;
  std::vector<uint64_t> match_index_;

  uint64_t election_timer_generation_ = 0;
  CommitCallback on_commit_;
};

/// A fully wired Raft cluster: one replica per runtime endpoint, RPCs
/// over the runtime transport between those endpoints. The cluster is the
/// replicas' only sender, so the runtime's network model (latency, egress,
/// fault plan) applies to consensus traffic like to any other message.
///
/// Cross-endpoint access goes through endpoint posts and clocks —
/// Start()/ProposeOnAll()/ScheduleCrash()/ScheduleLeaderCrash() do that
/// internally. Direct node(i) state reads, Propose() and FindLeader() are
/// only safe on a single-threaded runtime (sim), or before a multi-threaded
/// one starts or after it quiesces.
class RaftCluster {
 public:
  /// One replica per endpoint; `endpoints[i]` hosts replica i.
  RaftCluster(runtime::Transport* transport,
              std::vector<runtime::Endpoint*> endpoints, uint64_t seed,
              Params params = {});

  /// Arms all election timers (posted to each replica's endpoint).
  void Start();

  /// Proposes on the current leader (if any). Returns the assigned log
  /// index, or nullopt when no live leader exists — the caller retries
  /// after a delay. Reads replica state directly: single-threaded or
  /// quiesced runtime only.
  std::optional<uint64_t> Propose(Bytes payload);

  /// Posts a propose-if-leader task to every replica. Non-leaders ignore
  /// it; duplicate log entries for the same payload are deduplicated by the
  /// consensus layer's pending-erase.
  void ProposeOnAll(Bytes payload);

  RaftNode& node(uint32_t id) { return *nodes_[id]; }
  size_t num_nodes() const { return nodes_.size(); }
  runtime::Endpoint& endpoint(uint32_t id) { return *endpoints_[id]; }

  /// The current leader id, if some live node believes it leads (the one
  /// in the highest term wins). Single-threaded or quiesced runtime only.
  std::optional<uint32_t> FindLeader() const;

  /// Sets one commit callback on every node (tests usually only need the
  /// leader's, but the ordering service wants every replica's view). Call
  /// before Start().
  void SetCommitCallbackOnAll(const RaftNode::CommitCallback& cb);

  /// Test hook: toggles (term, vote) restore-on-resume on every replica.
  void SetPersistHardStateOnAll(bool persist);

  /// Crashes replica `id` over the window [start, end) of its endpoint
  /// clock: the node loses volatile state at `start` (and ignores every
  /// RPC while down) and rejoins as a follower at `end`. To cut its links
  /// as well, put its endpoint id in the runtime's fault plan.
  void ScheduleCrash(uint32_t id, runtime::TimeMicros start,
                     runtime::TimeMicros end);

  /// Leader kill: at time `at` (endpoint-clock time) whichever replica
  /// believes it leads crashes itself for `duration`; if no replica claims
  /// leadership within 50ms of `at` (election still converging), replica 0
  /// crashes as a fallback so the chaos window always exercises a failover.
  void ScheduleLeaderCrash(runtime::TimeMicros at,
                           runtime::TimeMicros duration);

  /// Ships `msg` from replica `from` to replica `to` over the runtime
  /// transport; `payload_bytes` is the RPC's modeled wire size. Delivery
  /// runs on the receiver's endpoint context and may be dropped,
  /// duplicated or delayed by the runtime (Raft handlers are idempotent,
  /// and the consensus layer re-proposes). Called by the replicas.
  void Send(uint32_t from, uint32_t to, uint64_t payload_bytes,
            RaftMessage msg);

 private:
  runtime::Transport* transport_;
  std::vector<runtime::Endpoint*> endpoints_;
  Params params_;
  std::vector<HardState> hard_states_;  // Stable storage, 1/replica.
  std::vector<std::unique_ptr<RaftNode>> nodes_;
};

}  // namespace fabricpp::raft

#endif  // FABRICPP_RAFT_RAFT_NODE_H_
