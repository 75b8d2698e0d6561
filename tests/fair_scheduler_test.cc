// Unit tests for the orderer's admission-queue fair scheduler: depth
// bounds, FIFO vs DRR drain order, deficit accounting, and the
// conflict-aware hot-key surcharge.
#include "node/fair_scheduler.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "fabric/metrics.h"
#include "proto/transaction.h"

namespace fabricpp::node {
namespace {

proto::Transaction Tx(const std::string& client, uint64_t proposal_id,
                      std::vector<std::string> write_keys = {}) {
  proto::Transaction tx;
  tx.client = client;
  tx.proposal_id = proposal_id;
  for (std::string& key : write_keys) {
    tx.rwset.writes.push_back({std::move(key), "v", false});
  }
  return tx;
}

TEST(FairSchedulerTest, FifoModeBoundsPerClientAndKeepsArrivalOrder) {
  FairScheduler::Options options;
  options.per_client_depth = 2;
  options.quantum = 0;  // FIFO.
  FairScheduler sched(options);

  proto::Transaction a1 = Tx("a", 1), a2 = Tx("a", 2), a3 = Tx("a", 3);
  proto::Transaction b1 = Tx("b", 1);
  EXPECT_TRUE(sched.Offer(a1));
  EXPECT_TRUE(sched.Offer(a2));
  EXPECT_FALSE(sched.Offer(a3)) << "client a is at its depth bound";
  EXPECT_TRUE(sched.Offer(b1)) << "client b has its own budget";
  EXPECT_EQ(sched.pending(), 3u);

  // Refusal left the transaction intact for the BUSY reply.
  EXPECT_EQ(a3.client, "a");
  EXPECT_EQ(a3.proposal_id, 3u);

  // Global FIFO: a1, a2, b1 — strict arrival order.
  EXPECT_EQ(sched.PollNext()->proposal_id, 1u);
  EXPECT_EQ(sched.PollNext()->client, "a");
  EXPECT_EQ(sched.PollNext()->client, "b");
  EXPECT_FALSE(sched.PollNext().has_value());

  // Draining frees the client's budget again.
  EXPECT_TRUE(sched.Offer(a3));
}

TEST(FairSchedulerTest, DrrInterleavesBackloggedClients) {
  FairScheduler::Options options;
  options.per_client_depth = 16;
  options.quantum = 1;
  FairScheduler sched(options);

  // Client "spam" queues 6 transactions before "polite" queues 2; DRR must
  // still alternate while both are backlogged instead of draining spam
  // first (what FIFO would do).
  for (uint64_t i = 1; i <= 6; ++i) {
    proto::Transaction tx = Tx("spam", i);
    ASSERT_TRUE(sched.Offer(tx));
  }
  for (uint64_t i = 1; i <= 2; ++i) {
    proto::Transaction tx = Tx("polite", i);
    ASSERT_TRUE(sched.Offer(tx));
  }

  std::vector<std::string> order;
  while (auto tx = sched.PollNext()) order.push_back(tx->client);
  ASSERT_EQ(order.size(), 8u);
  // Both of polite's transactions must leave within the first four serves
  // (one per round while it is backlogged).
  int polite_served = 0;
  for (size_t i = 0; i < 4; ++i) polite_served += order[i] == "polite";
  EXPECT_EQ(polite_served, 2) << "polite client starved behind the spammer";
  // Per-client order is still FIFO.
  EXPECT_EQ(order.back(), "spam");
}

TEST(FairSchedulerTest, DrrIsDeterministicLexicographicRoundRobin) {
  FairScheduler::Options options;
  options.per_client_depth = 8;
  options.quantum = 1;
  FairScheduler sched(options);

  // Offer in scrambled client order; the round-robin visits clients in
  // lexicographic order regardless.
  for (const char* client : {"c", "a", "b"}) {
    for (uint64_t i = 1; i <= 2; ++i) {
      proto::Transaction tx = Tx(client, i);
      ASSERT_TRUE(sched.Offer(tx));
    }
  }
  std::vector<std::string> order;
  while (auto tx = sched.PollNext()) order.push_back(tx->client);
  const std::vector<std::string> expected = {"a", "b", "c", "a", "b", "c"};
  EXPECT_EQ(order, expected);
}

TEST(FairSchedulerTest, IdleClientBanksNoDeficit) {
  FairScheduler::Options options;
  options.per_client_depth = 8;
  options.quantum = 1;
  FairScheduler sched(options);

  // "a" drains completely, then both clients queue again: "a" must not
  // have accumulated credit while empty that would let it burst ahead.
  proto::Transaction a1 = Tx("a", 1);
  ASSERT_TRUE(sched.Offer(a1));
  EXPECT_EQ(sched.PollNext()->client, "a");

  for (uint64_t i = 2; i <= 4; ++i) {
    proto::Transaction ta = Tx("a", i);
    proto::Transaction tb = Tx("b", i);
    ASSERT_TRUE(sched.Offer(ta));
    ASSERT_TRUE(sched.Offer(tb));
  }
  std::map<std::string, int> first_four;
  for (int i = 0; i < 4; ++i) ++first_four[sched.PollNext()->client];
  EXPECT_EQ(first_four["a"], 2);
  EXPECT_EQ(first_four["b"], 2);
}

TEST(FairSchedulerTest, HotKeyTrackingFollowsTheSlidingWindow) {
  FairScheduler::Options options;
  options.per_client_depth = 8;
  options.quantum = 1;
  options.conflict_penalty = 4;
  FairScheduler sched(options);

  EXPECT_FALSE(sched.IsHot("k"));
  // 8 writes of "k" in one sealed batch reach the hot threshold.
  sched.NoteSealedBatch(std::vector<std::string>(8, "k"));
  EXPECT_TRUE(sched.IsHot("k"));
  EXPECT_FALSE(sched.IsHot("cold"));
  // Four batches later the writes have left the window.
  for (int i = 0; i < 4; ++i) sched.NoteSealedBatch({"other"});
  EXPECT_FALSE(sched.IsHot("k"));
}

TEST(FairSchedulerTest, ConflictPenaltyThrottlesHotKeyWriters) {
  FairScheduler::Options options;
  options.per_client_depth = 16;
  options.quantum = 1;
  options.conflict_penalty = 3;
  FairScheduler sched(options);

  sched.NoteSealedBatch(std::vector<std::string>(8, "hot"));
  ASSERT_TRUE(sched.IsHot("hot"));

  // "h" writes the hot key (cost 1 + 3 = 4 units); "c" writes cold keys
  // (cost 1). With quantum 1, "c" serves every round while "h" serves
  // every fourth: over the first 5 serves, "c" gets 4 and "h" gets 1.
  for (uint64_t i = 1; i <= 4; ++i) {
    proto::Transaction th = Tx("h", i, {"hot"});
    proto::Transaction tc = Tx("c", i, {"cold"});
    ASSERT_TRUE(sched.Offer(th));
    ASSERT_TRUE(sched.Offer(tc));
  }
  std::vector<std::string> order;
  for (int i = 0; i < 5; ++i) order.push_back(sched.PollNext()->client);
  int h_served = 0;
  for (const std::string& c : order) h_served += c == "h";
  EXPECT_EQ(h_served, 1) << "hot-key writer should pay 4x per transaction";
}

TEST(FairSchedulerTest, IdleRunReportsPerfectFairness) {
  // The fairness suite's end-to-end runs read jain_fairness out of the run
  // report; a window in which no client fired (scheduler idle throughout)
  // must report 1.0, not the pre-fix 0.0 that looked like total starvation.
  fabric::Metrics metrics;
  metrics.SetWindow(0, ~0ULL);
  EXPECT_EQ(metrics.Report().jain_fairness, 1.0);
}

}  // namespace
}  // namespace fabricpp::node
