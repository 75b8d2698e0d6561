#include "raft/raft_node.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>
#include <variant>

namespace fabricpp::raft {

std::string_view RoleToString(Role role) {
  switch (role) {
    case Role::kFollower:
      return "FOLLOWER";
    case Role::kCandidate:
      return "CANDIDATE";
    case Role::kLeader:
      return "LEADER";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// RaftNode
// ---------------------------------------------------------------------------

RaftNode::RaftNode(uint32_t id, uint32_t cluster_size, uint64_t seed,
                   const Params* params, runtime::Clock* clock,
                   RaftCluster* cluster, HardState* stable)
    : id_(id),
      cluster_size_(cluster_size),
      rng_(seed ^ (0x9e3779b97f4a7c15ULL * (id + 1))),
      params_(params),
      clock_(clock),
      cluster_(cluster),
      stable_(stable) {}

void RaftNode::Start() { ResetElectionTimer(); }

runtime::TimeMicros RaftNode::ElectionTimeout() {
  const Params& p = *params_;
  return p.election_timeout_min +
         rng_.NextUint64(p.election_timeout_max - p.election_timeout_min + 1);
}

void RaftNode::ResetElectionTimer() {
  const uint64_t generation = ++election_timer_generation_;
  clock_->Schedule(ElectionTimeout(), [this, generation]() {
    if (stopped_ || generation != election_timer_generation_) return;
    if (role_ != Role::kLeader) StartElection();
    // Leaders don't use election timers; their heartbeats are separate.
  });
}

void RaftNode::PersistHardState() {
  if (stable_ == nullptr) return;
  stable_->term = current_term_;
  stable_->voted_for = voted_for_;
}

void RaftNode::Resume() {
  stopped_ = false;
  role_ = Role::kFollower;
  if (persist_hard_state_ && stable_ != nullptr) {
    // Reload the durable fraction: without this a restarted replica rejoins
    // at term 0 with no vote on record and can grant a second vote in a
    // term it already voted in — two leaders in one term.
    current_term_ = stable_->term;
    voted_for_ = stable_->voted_for;
  }
  ResetElectionTimer();
}

void RaftNode::Crash() {
  stopped_ = true;
  role_ = Role::kFollower;
  votes_received_ = 0;
  next_index_.clear();
  match_index_.clear();
  // Process death wipes volatile memory: the in-memory (term, vote) are
  // gone; Resume() restores them from stable storage. The log survives
  // (persisted in real Raft).
  current_term_ = 0;
  voted_for_.reset();
  // Invalidate any armed election timer; Resume() arms a fresh one.
  ++election_timer_generation_;
}

void RaftNode::BecomeFollower(uint64_t term) {
  current_term_ = term;
  role_ = Role::kFollower;
  voted_for_.reset();
  PersistHardState();
  ResetElectionTimer();
}

void RaftNode::StartElection() {
  role_ = Role::kCandidate;
  ++current_term_;
  voted_for_ = id_;
  PersistHardState();
  votes_received_ = 1;  // Own vote.
  ResetElectionTimer();  // Retry with a fresh timeout on a split vote.
  for (uint32_t peer = 0; peer < cluster_size_; ++peer) {
    if (peer == id_) continue;
    cluster_->Send(id_, peer, 64,
                   RequestVote{current_term_, id_, LastLogIndex(),
                               LastLogTerm()});
  }
  if (cluster_size_ == 1) BecomeLeader();
}

void RaftNode::Handle(const RequestVote& msg) {
  if (stopped_) return;
  if (msg.term > current_term_) BecomeFollower(msg.term);
  bool granted = false;
  if (msg.term == current_term_ &&
      (!voted_for_.has_value() || *voted_for_ == msg.candidate)) {
    // Election restriction (§5.4.1): candidate's log must be at least as
    // up-to-date as ours.
    const bool candidate_up_to_date =
        msg.last_log_term > LastLogTerm() ||
        (msg.last_log_term == LastLogTerm() &&
         msg.last_log_index >= LastLogIndex());
    if (candidate_up_to_date) {
      granted = true;
      voted_for_ = msg.candidate;
      PersistHardState();
      ResetElectionTimer();
    }
  }
  cluster_->Send(id_, msg.candidate, 32,
                 VoteReply{current_term_, id_, granted});
}

void RaftNode::Handle(const VoteReply& msg) {
  if (stopped_) return;
  if (msg.term > current_term_) {
    BecomeFollower(msg.term);
    return;
  }
  if (role_ != Role::kCandidate || msg.term != current_term_ || !msg.granted) {
    return;
  }
  if (++votes_received_ > cluster_size_ / 2) BecomeLeader();
}

void RaftNode::BecomeLeader() {
  role_ = Role::kLeader;
  next_index_.assign(cluster_size_, LastLogIndex() + 1);
  match_index_.assign(cluster_size_, 0);
  match_index_[id_] = LastLogIndex();
  BroadcastAppendEntries();
}

std::optional<uint64_t> RaftNode::Propose(Bytes payload) {
  if (stopped_ || role_ != Role::kLeader) return std::nullopt;
  log_.push_back(LogEntry{current_term_, std::move(payload)});
  match_index_[id_] = LastLogIndex();
  if (cluster_size_ == 1) {
    AdvanceCommitIndex();
  } else {
    BroadcastAppendEntries();
  }
  return LastLogIndex();
}

void RaftNode::BroadcastAppendEntries() {
  if (stopped_ || role_ != Role::kLeader) return;
  for (uint32_t peer = 0; peer < cluster_size_; ++peer) {
    if (peer != id_) SendAppendEntriesTo(peer);
  }
  // Heartbeat rearm: keeps followers' election timers at bay.
  const uint64_t term = current_term_;
  clock_->Schedule(params_->heartbeat_interval, [this, term]() {
    if (!stopped_ && role_ == Role::kLeader && current_term_ == term) {
      BroadcastAppendEntries();
    }
  });
}

void RaftNode::SendAppendEntriesTo(uint32_t peer) {
  const uint64_t next = next_index_[peer];
  AppendEntries msg;
  msg.term = current_term_;
  msg.leader = id_;
  msg.prev_log_index = next - 1;
  msg.prev_log_term = TermAt(next - 1);
  msg.leader_commit = commit_index_;
  uint64_t payload_bytes = 64;
  for (uint64_t i = next; i <= LastLogIndex(); ++i) {
    msg.entries.push_back(log_[i - 1]);
    payload_bytes += log_[i - 1].payload.size() + 16;
  }
  cluster_->Send(id_, peer, payload_bytes, std::move(msg));
}

void RaftNode::Handle(const AppendEntries& msg) {
  if (stopped_) return;
  if (msg.term > current_term_) BecomeFollower(msg.term);
  if (msg.term < current_term_) {
    cluster_->Send(id_, msg.leader, 32,
                   AppendReply{current_term_, id_, false, 0});
    return;
  }
  // Valid leader for our term.
  if (role_ != Role::kFollower) role_ = Role::kFollower;
  ResetElectionTimer();

  // Consistency check (§5.3).
  if (msg.prev_log_index > LastLogIndex() ||
      TermAt(msg.prev_log_index) != msg.prev_log_term) {
    cluster_->Send(id_, msg.leader, 32,
                   AppendReply{current_term_, id_, false, 0});
    return;
  }
  // Append/overwrite entries.
  uint64_t index = msg.prev_log_index;
  for (const LogEntry& entry : msg.entries) {
    ++index;
    if (index <= LastLogIndex()) {
      if (TermAt(index) != entry.term) {
        log_.resize(index - 1);  // Conflict: truncate our divergent suffix.
        log_.push_back(entry);
      }
    } else {
      log_.push_back(entry);
    }
  }
  if (msg.leader_commit > commit_index_) {
    commit_index_ = std::min(msg.leader_commit, LastLogIndex());
    ApplyCommitted();
  }
  cluster_->Send(id_, msg.leader, 32,
                 AppendReply{current_term_, id_, true, index});
}

void RaftNode::Handle(const AppendReply& msg) {
  if (stopped_) return;
  if (msg.term > current_term_) {
    BecomeFollower(msg.term);
    return;
  }
  if (role_ != Role::kLeader || msg.term != current_term_) return;
  if (msg.success) {
    match_index_[msg.follower] =
        std::max(match_index_[msg.follower], msg.match_index);
    next_index_[msg.follower] = match_index_[msg.follower] + 1;
    AdvanceCommitIndex();
  } else {
    // Log repair: back next_index off and retry immediately.
    if (next_index_[msg.follower] > 1) --next_index_[msg.follower];
    SendAppendEntriesTo(msg.follower);
  }
}

void RaftNode::AdvanceCommitIndex() {
  // Largest N with a majority of match_index >= N and log[N].term ==
  // current term (§5.4.2: only current-term entries commit by counting).
  for (uint64_t n = LastLogIndex(); n > commit_index_; --n) {
    if (TermAt(n) != current_term_) break;
    uint32_t replicas = 0;
    for (uint32_t peer = 0; peer < cluster_size_; ++peer) {
      if (match_index_[peer] >= n) ++replicas;
    }
    if (replicas > cluster_size_ / 2) {
      commit_index_ = n;
      ApplyCommitted();
      break;
    }
  }
}

void RaftNode::ApplyCommitted() {
  while (last_applied_ < commit_index_) {
    ++last_applied_;
    if (on_commit_) on_commit_(last_applied_, log_[last_applied_ - 1].payload);
  }
}

// ---------------------------------------------------------------------------
// RaftCluster
// ---------------------------------------------------------------------------

RaftCluster::RaftCluster(runtime::Transport* transport,
                         std::vector<runtime::Endpoint*> endpoints,
                         uint64_t seed, Params params)
    : transport_(transport),
      endpoints_(std::move(endpoints)),
      params_(params),
      hard_states_(endpoints_.size()) {
  const auto num_nodes = static_cast<uint32_t>(endpoints_.size());
  for (uint32_t id = 0; id < num_nodes; ++id) {
    nodes_.push_back(std::make_unique<RaftNode>(
        id, num_nodes, seed, &params_, &endpoints_[id]->clock(), this,
        &hard_states_[id]));
  }
}

void RaftCluster::Send(uint32_t from, uint32_t to, uint64_t payload_bytes,
                       RaftMessage msg) {
  RaftNode* receiver = nodes_[to].get();
  transport_->Send(*endpoints_[from], *endpoints_[to], payload_bytes,
                   [receiver, msg = std::move(msg)]() {
                     std::visit(
                         [receiver](const auto& m) { receiver->Handle(m); },
                         msg);
                   });
}

void RaftCluster::Start() {
  for (uint32_t id = 0; id < nodes_.size(); ++id) {
    RaftNode* node = nodes_[id].get();
    endpoints_[id]->Post([node]() { node->Start(); });
  }
}

std::optional<uint64_t> RaftCluster::Propose(Bytes payload) {
  const auto leader = FindLeader();
  if (!leader.has_value()) return std::nullopt;
  return nodes_[*leader]->Propose(std::move(payload));
}

void RaftCluster::ProposeOnAll(Bytes payload) {
  for (uint32_t id = 0; id < nodes_.size(); ++id) {
    RaftNode* node = nodes_[id].get();
    endpoints_[id]->Post([node, payload]() mutable {
      node->Propose(std::move(payload));
    });
  }
}

std::optional<uint32_t> RaftCluster::FindLeader() const {
  std::optional<uint32_t> leader;
  uint64_t best_term = 0;
  for (const auto& node : nodes_) {
    if (node->stopped() || node->role() != Role::kLeader) continue;
    if (node->current_term() > best_term) {
      best_term = node->current_term();
      leader = node->id();
    }
  }
  return leader;
}

void RaftCluster::SetCommitCallbackOnAll(const RaftNode::CommitCallback& cb) {
  for (auto& node : nodes_) node->set_commit_callback(cb);
}

void RaftCluster::SetPersistHardStateOnAll(bool persist) {
  for (auto& node : nodes_) node->set_persist_hard_state(persist);
}

void RaftCluster::ScheduleCrash(uint32_t id, runtime::TimeMicros start,
                                runtime::TimeMicros end) {
  RaftNode* node = nodes_[id].get();
  runtime::Clock& clock = endpoints_[id]->clock();
  clock.ScheduleAt(start, [node]() { node->Crash(); });
  clock.ScheduleAt(end, [node]() { node->Resume(); });
}

void RaftCluster::ScheduleLeaderCrash(runtime::TimeMicros at,
                                      runtime::TimeMicros duration) {
  // One claim per scheduled kill: the replicas check their roles on their
  // own endpoints, and exactly one of them (or the fallback) crashes.
  auto claimed = std::make_shared<std::atomic<bool>>(false);
  for (uint32_t id = 0; id < nodes_.size(); ++id) {
    RaftNode* node = nodes_[id].get();
    runtime::Clock* clock = &endpoints_[id]->clock();
    clock->ScheduleAt(at, [claimed, node, clock, duration]() {
      if (node->stopped() || node->role() != Role::kLeader) return;
      if (claimed->exchange(true)) return;
      node->Crash();
      clock->Schedule(duration, [node]() { node->Resume(); });
    });
  }
  // Fallback: if the election hasn't converged by `at` no replica claims
  // the crash — kill replica 0 so the chaos window still exercises a
  // failover.
  RaftNode* fallback = nodes_[0].get();
  runtime::Clock* clock0 = &endpoints_[0]->clock();
  clock0->ScheduleAt(at + 50 * runtime::kMillisecond,
                     [claimed, fallback, clock0, duration]() {
                       if (claimed->exchange(true)) return;
                       fallback->Crash();
                       clock0->Schedule(duration,
                                        [fallback]() { fallback->Resume(); });
                     });
}

}  // namespace fabricpp::raft
