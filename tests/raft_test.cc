// Tests for src/raft: leader election, log replication, commit safety,
// leader failure + re-election, log repair, partitions, and randomized
// agreement checking — all on the deterministic simulation runtime, whose
// transport (latency, egress, fault plan) carries every Raft RPC.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/strings.h"
#include "raft/raft_node.h"
#include "runtime/sim_runtime.h"

namespace fabricpp::raft {
namespace {

Bytes Payload(const std::string& s) { return Bytes(s.begin(), s.end()); }
std::string AsString(const Bytes& b) { return std::string(b.begin(), b.end()); }

/// A cluster of `nodes` replicas on `runtime`, one "raft-%u" endpoint each.
std::unique_ptr<RaftCluster> MakeCluster(runtime::SimRuntime& runtime,
                                         uint32_t nodes, uint64_t seed) {
  std::vector<runtime::Endpoint*> endpoints;
  for (uint32_t i = 0; i < nodes; ++i) {
    endpoints.push_back(&runtime.AddEndpoint(StrFormat("raft-%u", i)));
  }
  return std::make_unique<RaftCluster>(&runtime.transport(),
                                       std::move(endpoints), seed);
}

class RaftFixture : public ::testing::Test {
 protected:
  void Build(uint32_t nodes, uint64_t seed = 7) {
    cluster_ = MakeCluster(runtime_, nodes, seed);
    cluster_->Start();
  }

  /// Runs until a leader exists (or the deadline passes).
  std::optional<uint32_t> AwaitLeader(sim::SimTime deadline_extra =
                                          5 * sim::kSecond) {
    return AwaitLeaderOn(env_, *cluster_, deadline_extra);
  }

  static std::optional<uint32_t> AwaitLeaderOn(
      sim::Environment& env, const RaftCluster& cluster,
      sim::SimTime deadline_extra = 5 * sim::kSecond) {
    const sim::SimTime deadline = env.Now() + deadline_extra;
    while (env.Now() < deadline) {
      const auto leader = cluster.FindLeader();
      if (leader.has_value()) return leader;
      if (!env.Step()) break;
    }
    return cluster.FindLeader();
  }

  runtime::SimRuntime runtime_{runtime::SimRuntime::Options{}};
  sim::Environment& env_ = runtime_.env();
  std::unique_ptr<RaftCluster> cluster_;
};

TEST_F(RaftFixture, ElectsExactlyOneLeader) {
  Build(3);
  const auto leader = AwaitLeader();
  ASSERT_TRUE(leader.has_value());
  env_.RunUntil(env_.Now() + 2 * sim::kSecond);
  uint32_t leaders_in_max_term = 0;
  uint64_t max_term = 0;
  for (uint32_t i = 0; i < 3; ++i) {
    max_term = std::max(max_term, cluster_->node(i).current_term());
  }
  for (uint32_t i = 0; i < 3; ++i) {
    if (cluster_->node(i).role() == Role::kLeader &&
        cluster_->node(i).current_term() == max_term) {
      ++leaders_in_max_term;
    }
  }
  EXPECT_EQ(leaders_in_max_term, 1u);
}

TEST_F(RaftFixture, SingleNodeClusterLeadsImmediately) {
  Build(1);
  const auto leader = AwaitLeader();
  ASSERT_TRUE(leader.has_value());
  EXPECT_TRUE(cluster_->Propose(Payload("solo")));
  env_.RunUntil(env_.Now() + sim::kSecond);
  EXPECT_EQ(cluster_->node(0).commit_index(), 1u);
}

TEST_F(RaftFixture, ReplicatesAndCommitsOnAllNodes) {
  Build(3);
  std::map<uint32_t, std::vector<std::string>> committed;
  for (uint32_t i = 0; i < 3; ++i) {
    cluster_->node(i).set_commit_callback(
        [&committed, i](uint64_t, const Bytes& payload) {
          committed[i].push_back(AsString(payload));
        });
  }
  ASSERT_TRUE(AwaitLeader().has_value());
  EXPECT_TRUE(cluster_->Propose(Payload("block-1")));
  EXPECT_TRUE(cluster_->Propose(Payload("block-2")));
  EXPECT_TRUE(cluster_->Propose(Payload("block-3")));
  env_.RunUntil(env_.Now() + 2 * sim::kSecond);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(committed[i],
              (std::vector<std::string>{"block-1", "block-2", "block-3"}))
        << "node " << i;
  }
}

TEST_F(RaftFixture, LeaderFailureTriggersReElection) {
  Build(5);
  const auto first = AwaitLeader();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(cluster_->Propose(Payload("pre-crash")));
  env_.RunUntil(env_.Now() + sim::kSecond);

  cluster_->node(*first).Stop();
  const auto second = AwaitLeader(10 * sim::kSecond);
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(*second, *first);

  // The new leader still serves proposals; majorities of 4/5 remain.
  EXPECT_TRUE(cluster_->Propose(Payload("post-crash")));
  env_.RunUntil(env_.Now() + 2 * sim::kSecond);
  uint32_t nodes_with_both = 0;
  for (uint32_t i = 0; i < 5; ++i) {
    if (i == *first) continue;
    if (cluster_->node(i).commit_index() >= 2) ++nodes_with_both;
  }
  EXPECT_GE(nodes_with_both, 3u);
}

TEST_F(RaftFixture, StoppedNodeCatchesUpAfterResume) {
  Build(3);
  const auto leader = AwaitLeader();
  ASSERT_TRUE(leader.has_value());
  const uint32_t victim = (*leader + 1) % 3;
  cluster_->node(victim).Stop();

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cluster_->Propose(Payload("entry-" + std::to_string(i))));
  }
  env_.RunUntil(env_.Now() + 2 * sim::kSecond);
  EXPECT_EQ(cluster_->node(victim).log().size(), 0u);

  cluster_->node(victim).Resume();
  env_.RunUntil(env_.Now() + 3 * sim::kSecond);
  // Log repair must have replicated all five entries.
  EXPECT_EQ(cluster_->node(victim).log().size(), 5u);
  EXPECT_EQ(cluster_->node(victim).commit_index(), 5u);
}

TEST_F(RaftFixture, CommitOrderIdenticalEverywhere) {
  // Randomized agreement check: propose many entries with occasional
  // leader crashes; all live nodes must apply the same sequence.
  Build(3, /*seed=*/21);
  std::map<uint32_t, std::vector<std::string>> committed;
  for (uint32_t i = 0; i < 3; ++i) {
    cluster_->node(i).set_commit_callback(
        [&committed, i](uint64_t, const Bytes& payload) {
          committed[i].push_back(AsString(payload));
        });
  }
  ASSERT_TRUE(AwaitLeader().has_value());
  int accepted = 0;
  for (int round = 0; round < 50; ++round) {
    if (cluster_->Propose(Payload(StrFormat("e%d", round)))) ++accepted;
    env_.RunUntil(env_.Now() + 100 * sim::kMillisecond);
    if (round == 25) {
      const auto leader = cluster_->FindLeader();
      if (leader.has_value()) {
        cluster_->node(*leader).Stop();
        AwaitLeader(10 * sim::kSecond);
        cluster_->node(*leader).Resume();
      }
    }
  }
  env_.RunUntil(env_.Now() + 3 * sim::kSecond);
  ASSERT_GT(accepted, 30);
  // Prefix agreement: every pair of nodes agrees on the common prefix.
  for (uint32_t a = 0; a < 3; ++a) {
    for (uint32_t b = a + 1; b < 3; ++b) {
      const size_t common =
          std::min(committed[a].size(), committed[b].size());
      for (size_t i = 0; i < common; ++i) {
        ASSERT_EQ(committed[a][i], committed[b][i])
            << "nodes " << a << "/" << b << " diverge at " << i;
      }
    }
  }
  // And everything the leader committed reached everyone eventually.
  EXPECT_EQ(committed[0].size(), committed[1].size());
  EXPECT_EQ(committed[1].size(), committed[2].size());
}

TEST_F(RaftFixture, ProposeFailsWithoutLeader) {
  Build(3);
  ASSERT_TRUE(AwaitLeader().has_value());
  for (uint32_t i = 0; i < 3; ++i) cluster_->node(i).Stop();
  EXPECT_FALSE(cluster_->Propose(Payload("nobody-home")));
}

TEST_F(RaftFixture, CrashedReplicaCannotVoteTwiceInATerm) {
  // Double-vote regression: (current_term, voted_for) persist to stable
  // storage on every change and are restored on Resume(), so a replica
  // that crashes mid-election cannot grant its term-T vote twice. The
  // cluster is never Start()ed and the event loop never runs — no election
  // timers, no deliveries; node 2 is driven by hand.
  runtime::SimRuntime runtime{runtime::SimRuntime::Options{}};
  const auto cluster = MakeCluster(runtime, 3, 7);
  RaftNode& voter = cluster->node(2);

  voter.Handle(RequestVote{/*term=*/5, /*candidate=*/0,
                           /*last_log_index=*/0, /*last_log_term=*/0});
  EXPECT_EQ(voter.current_term(), 5u);
  ASSERT_TRUE(voter.voted_for().has_value());
  EXPECT_EQ(*voter.voted_for(), 0u);

  voter.Crash();
  voter.Resume();
  // Stable storage restored the vote across the crash window...
  EXPECT_EQ(voter.current_term(), 5u);
  ASSERT_TRUE(voter.voted_for().has_value());
  EXPECT_EQ(*voter.voted_for(), 0u);
  // ...so a competing candidate in the same term is refused.
  voter.Handle(RequestVote{5, /*candidate=*/1, 0, 0});
  EXPECT_EQ(*voter.voted_for(), 0u);
}

TEST_F(RaftFixture, DisablingHardStateRestoreReopensDoubleVoteGap) {
  // The historical gap, reproduced via the test hook: without the restore,
  // a crashed replica forgets its vote and grants term 5 to a second
  // candidate — two leaders in one term become possible.
  runtime::SimRuntime runtime{runtime::SimRuntime::Options{}};
  const auto cluster = MakeCluster(runtime, 3, 7);
  RaftNode& voter = cluster->node(2);
  voter.set_persist_hard_state(false);

  voter.Handle(RequestVote{5, /*candidate=*/0, 0, 0});
  ASSERT_TRUE(voter.voted_for().has_value());
  EXPECT_EQ(*voter.voted_for(), 0u);

  voter.Crash();
  voter.Resume();
  voter.Handle(RequestVote{5, /*candidate=*/1, 0, 0});
  ASSERT_TRUE(voter.voted_for().has_value());
  EXPECT_EQ(*voter.voted_for(), 1u) << "gap closed? then drop this hook";
}

TEST_F(RaftFixture, ChaosCrashWindowNeverElectsTwoLeadersPerTerm) {
  // Cluster-level double-vote check: replicas crash in overlapping windows
  // while proposals flow; at no point may two live nodes lead in the same
  // term (a successful double vote is exactly what would allow it).
  Build(5, /*seed=*/13);
  ASSERT_TRUE(AwaitLeader().has_value());
  cluster_->ScheduleCrash(0, 500 * sim::kMillisecond, 2 * sim::kSecond);
  cluster_->ScheduleCrash(1, 700 * sim::kMillisecond,
                          1800 * sim::kMillisecond);
  std::map<uint64_t, std::set<uint32_t>> leaders_by_term;
  const sim::SimTime deadline = env_.Now() + 6 * sim::kSecond;
  while (env_.Now() < deadline && env_.Step()) {
    for (uint32_t i = 0; i < 5; ++i) {
      const RaftNode& node = cluster_->node(i);
      if (node.role() == Role::kLeader && !node.stopped()) {
        leaders_by_term[node.current_term()].insert(i);
      }
    }
  }
  for (const auto& [term, leaders] : leaders_by_term) {
    EXPECT_LE(leaders.size(), 1u) << "two leaders in term " << term;
  }
}

TEST_F(RaftFixture, EachScheduledLeaderCrashKillsOneLeader) {
  // Every ScheduleLeaderCrash call takes down exactly one replica — the
  // one leading at its deadline — however many kills a driver schedules.
  Build(3);
  ASSERT_TRUE(AwaitLeader().has_value());
  const sim::SimTime first = env_.Now() + 200 * sim::kMillisecond;
  const sim::SimTime second = first + 2 * sim::kSecond;
  cluster_->ScheduleLeaderCrash(first, 500 * sim::kMillisecond);
  cluster_->ScheduleLeaderCrash(second, 500 * sim::kMillisecond);
  std::vector<bool> was_stopped(3, false);
  std::vector<sim::SimTime> crashes;
  while (env_.Now() < second + sim::kSecond && env_.Step()) {
    for (uint32_t i = 0; i < 3; ++i) {
      const bool stopped = cluster_->node(i).stopped();
      if (stopped && !was_stopped[i]) crashes.push_back(env_.Now());
      was_stopped[i] = stopped;
    }
  }
  ASSERT_EQ(crashes.size(), 2u);
  EXPECT_EQ(crashes[0], first);
  EXPECT_EQ(crashes[1], second);
}

TEST_F(RaftFixture, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    runtime::SimRuntime runtime{runtime::SimRuntime::Options{}};
    const auto cluster = MakeCluster(runtime, 3, seed);
    cluster->Start();
    runtime.env().RunUntil(2 * sim::kSecond);
    std::vector<uint64_t> terms;
    for (uint32_t i = 0; i < 3; ++i) {
      terms.push_back(cluster->node(i).current_term());
    }
    return std::make_pair(cluster->FindLeader(), terms);
  };
  EXPECT_EQ(run(5), run(5));
}

TEST_F(RaftFixture, PartitionedFollowerCatchesUpAfterTheWindow) {
  // Raft RPCs ride the runtime transport, so the runtime's fault plan cuts
  // a replica off like any other node. While one follower is partitioned
  // from both others, the majority keeps its leader and keeps committing;
  // once the window closes, the follower is repaired up to the leader's
  // commit index. The whole scenario replays identically from one seed.
  static constexpr uint64_t kEntries = 10;
  using Fingerprint = std::pair<std::vector<uint64_t>, std::vector<uint64_t>>;
  auto run = [](uint64_t seed, Fingerprint* out) {
    runtime::SimRuntime runtime{runtime::SimRuntime::Options{}};
    sim::Environment& env = runtime.env();
    const auto cluster = MakeCluster(runtime, 3, seed);
    cluster->Start();
    const auto leader = AwaitLeaderOn(env, *cluster);
    ASSERT_TRUE(leader.has_value());
    const uint32_t victim = (*leader + 1) % 3;
    const sim::SimTime start = env.Now() + 50 * sim::kMillisecond;
    const sim::SimTime end = start + 2 * sim::kSecond;
    for (uint32_t other = 0; other < 3; ++other) {
      if (other == victim) continue;
      runtime.injector().PartitionPair(cluster->endpoint(victim).id(),
                                       cluster->endpoint(other).id(), start,
                                       end);
    }
    env.RunUntil(start);
    for (uint64_t i = 0; i < kEntries; ++i) {
      EXPECT_EQ(cluster->FindLeader(), leader) << "entry " << i;
      EXPECT_TRUE(cluster->Propose(Payload("entry-" + std::to_string(i))));
      env.RunUntil(env.Now() + 100 * sim::kMillisecond);
    }
    env.RunUntil(end - sim::kMillisecond);
    // The majority committed everything; the cut-off follower nothing.
    EXPECT_EQ(cluster->FindLeader(), leader);
    for (uint32_t i = 0; i < 3; ++i) {
      EXPECT_EQ(cluster->node(i).commit_index(), i == victim ? 0 : kEntries)
          << "node " << i;
    }

    env.RunUntil(end + 3 * sim::kSecond);
    const auto healed_leader = cluster->FindLeader();
    ASSERT_TRUE(healed_leader.has_value());
    EXPECT_EQ(cluster->node(victim).commit_index(),
              cluster->node(*healed_leader).commit_index());
    EXPECT_EQ(cluster->node(victim).commit_index(), kEntries);
    for (uint32_t i = 0; i < 3; ++i) {
      out->first.push_back(cluster->node(i).current_term());
      out->second.push_back(cluster->node(i).commit_index());
    }
  };
  Fingerprint first, second;
  run(11, &first);
  run(11, &second);
  ASSERT_EQ(first.first.size(), 3u);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace fabricpp::raft
