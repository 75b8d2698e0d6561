// Tests for src/workload: Smallbank, the custom hot-key workload, blank
// transactions, and the Appendix B micro sequences.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "chaincode/builtin_chaincodes.h"
#include "chaincode/chaincode.h"
#include "chaincode/tx_context.h"
#include "workload/custom.h"
#include "workload/micro_sequences.h"
#include "workload/smallbank.h"

namespace fabricpp::workload {
namespace {

// --- Smallbank ---

TEST(SmallbankTest, SeedsTwoAccountsPerUser) {
  SmallbankConfig config;
  config.num_users = 100;
  SmallbankWorkload workload(config);
  statedb::StateDb db;
  workload.SeedState(&db);
  EXPECT_EQ(db.NumKeys(), 200u);
  EXPECT_TRUE(db.Get("c_0").ok());
  EXPECT_TRUE(db.Get("s_99").ok());
}

TEST(SmallbankTest, SeedingIsDeterministic) {
  SmallbankConfig config;
  config.num_users = 50;
  SmallbankWorkload workload(config);
  statedb::StateDb a, b;
  workload.SeedState(&a);
  workload.SeedState(&b);
  a.ForEach([&](const std::string& key, const statedb::VersionedValue& vv) {
    EXPECT_EQ(b.Get(key)->value, vv.value) << key;
  });
}

TEST(SmallbankTest, BalancesWithinConfiguredRange) {
  SmallbankConfig config;
  config.num_users = 200;
  config.min_balance = 10;
  config.max_balance = 20;
  SmallbankWorkload workload(config);
  statedb::StateDb db;
  workload.SeedState(&db);
  db.ForEach([&](const std::string&, const statedb::VersionedValue& vv) {
    const int64_t bal = std::stoll(vv.value);
    EXPECT_GE(bal, 10);
    EXPECT_LE(bal, 20);
  });
}

TEST(SmallbankTest, WriteProbabilityShapesMix) {
  SmallbankConfig config;
  config.num_users = 1000;
  config.prob_write = 0.95;
  SmallbankWorkload workload(config);
  Rng rng(1);
  int queries = 0;
  constexpr int kSamples = 10000;
  for (int i = 0; i < kSamples; ++i) {
    queries += (workload.NextArgs(rng)[0] == "query");
  }
  EXPECT_NEAR(queries / static_cast<double>(kSamples), 0.05, 0.01);
}

TEST(SmallbankTest, AllArgsAreInvokable) {
  // Every generated argument vector must be accepted by the chaincode.
  SmallbankConfig config;
  config.num_users = 100;
  SmallbankWorkload workload(config);
  statedb::StateDb db;
  workload.SeedState(&db);
  const auto registry = chaincode::ChaincodeRegistry::WithBuiltins();
  const chaincode::Chaincode* contract = *registry->Get("smallbank");
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    chaincode::TxContext ctx(&db, 0, false);
    const Status status = contract->Invoke(ctx, workload.NextArgs(rng));
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
}

TEST(SmallbankTest, ZipfSkewConcentratesAccounts) {
  SmallbankConfig config;
  config.num_users = 10000;
  config.prob_write = 1.0;
  config.zipf_s = 2.0;
  SmallbankWorkload workload(config);
  Rng rng(3);
  int user0 = 0;
  constexpr int kSamples = 5000;
  for (int i = 0; i < kSamples; ++i) {
    const auto args = workload.NextArgs(rng);
    // Arg 1 is always the (first) user.
    if (args[1] == "0") ++user0;
  }
  // Under s=2, user 0 dominates (P ~ 0.6).
  EXPECT_GT(user0, kSamples / 3);
}

TEST(SmallbankTest, SendPaymentUsesDistinctUsers) {
  SmallbankConfig config;
  config.num_users = 10;
  config.prob_write = 1.0;
  config.zipf_s = 2.0;  // High collision probability.
  SmallbankWorkload workload(config);
  Rng rng(4);
  for (int i = 0; i < 5000; ++i) {
    const auto args = workload.NextArgs(rng);
    if (args[0] == "send_payment") {
      EXPECT_NE(args[1], args[2]);
    }
  }
}

// --- Custom workload ---

TEST(CustomTest, HotSetSizeFromFraction) {
  CustomConfig config;
  config.num_accounts = 10000;
  config.hot_set_fraction = 0.01;
  EXPECT_EQ(CustomWorkload(config).hot_set_size(), 100u);
  config.hot_set_fraction = 0.0;
  EXPECT_EQ(CustomWorkload(config).hot_set_size(), 1u);  // At least one.
}

TEST(CustomTest, ArgsShape) {
  CustomConfig config;
  config.num_accounts = 1000;
  config.rw_ops = 4;
  CustomWorkload workload(config);
  Rng rng(5);
  const auto args = workload.NextArgs(rng);
  ASSERT_EQ(args.size(), 9u);  // count + 4 reads + 4 writes.
  EXPECT_EQ(args[0], "4");
  for (size_t i = 1; i < args.size(); ++i) {
    EXPECT_EQ(args[i].substr(0, 4), "acc_");
  }
}

TEST(CustomTest, ReadAndWriteKeysAreDistinctWithinKind) {
  CustomConfig config;
  config.num_accounts = 1000;
  config.rw_ops = 8;
  CustomWorkload workload(config);
  Rng rng(6);
  for (int trial = 0; trial < 200; ++trial) {
    const auto args = workload.NextArgs(rng);
    std::set<std::string> reads(args.begin() + 1, args.begin() + 9);
    std::set<std::string> writes(args.begin() + 9, args.end());
    EXPECT_EQ(reads.size(), 8u);
    EXPECT_EQ(writes.size(), 8u);
  }
}

TEST(CustomTest, HotProbabilitiesRespected) {
  CustomConfig config;
  config.num_accounts = 10000;
  config.rw_ops = 8;
  config.hot_read_prob = 0.4;
  config.hot_write_prob = 0.1;
  config.hot_set_fraction = 0.01;
  CustomWorkload workload(config);
  Rng rng(7);
  int hot_reads = 0, hot_writes = 0, total = 0;
  const uint64_t hot_size = workload.hot_set_size();
  auto is_hot = [&](const std::string& key) {
    return std::stoull(key.substr(4)) < hot_size;
  };
  for (int trial = 0; trial < 2000; ++trial) {
    const auto args = workload.NextArgs(rng);
    for (int i = 1; i <= 8; ++i) hot_reads += is_hot(args[i]);
    for (int i = 9; i <= 16; ++i) hot_writes += is_hot(args[i]);
    total += 8;
  }
  EXPECT_NEAR(hot_reads / static_cast<double>(total), 0.4, 0.03);
  EXPECT_NEAR(hot_writes / static_cast<double>(total), 0.1, 0.03);
}

TEST(CustomTest, SeedsAllAccounts) {
  CustomConfig config;
  config.num_accounts = 500;
  CustomWorkload workload(config);
  statedb::StateDb db;
  workload.SeedState(&db);
  EXPECT_EQ(db.NumKeys(), 500u);
}

// --- Blank ---

TEST(BlankTest, NoArgsNoState) {
  BlankWorkload workload;
  Rng rng(8);
  EXPECT_TRUE(workload.NextArgs(rng).empty());
  EXPECT_EQ(workload.chaincode(), "blank");
  statedb::StateDb db;
  workload.SeedState(&db);
  EXPECT_EQ(db.NumKeys(), 0u);
}

// --- Micro sequences (Appendix B) ---

TEST(MicroSequencesTest, ShiftedSequenceShape) {
  const auto sets = MakeShiftedReadWriteSequence(8, 0);
  ASSERT_EQ(sets.size(), 8u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sets[i].writes.size(), 1u) << i;
    EXPECT_TRUE(sets[i].reads.empty()) << i;
    EXPECT_EQ(sets[4 + i].reads.size(), 1u) << i;
    EXPECT_TRUE(sets[4 + i].writes.empty()) << i;
  }
  // Reader i reads what writer i writes.
  EXPECT_EQ(sets[0].writes[0].key, sets[4].reads[0].key);
}

TEST(MicroSequencesTest, ShiftRotatesRight) {
  const auto base = MakeShiftedReadWriteSequence(8, 0);
  const auto shifted = MakeShiftedReadWriteSequence(8, 2);
  // The last two of base are now in front.
  EXPECT_EQ(shifted[0].reads, base[6].reads);
  EXPECT_EQ(shifted[1].reads, base[7].reads);
  EXPECT_EQ(shifted[2].writes, base[0].writes);
}

TEST(MicroSequencesTest, CycleSequenceMatchesPaperPattern) {
  // T[r(k0),w(k0)], T[r(k0),w(k1)], T[r(k1),w(k2)], T[r(k2),w(k0)].
  const auto sets = MakeCycleSequence(4, 4);
  ASSERT_EQ(sets.size(), 4u);
  EXPECT_EQ(sets[0].reads[0].key, "k0");
  EXPECT_EQ(sets[0].writes[0].key, "k0");
  EXPECT_EQ(sets[1].reads[0].key, "k0");
  EXPECT_EQ(sets[1].writes[0].key, "k1");
  EXPECT_EQ(sets[2].reads[0].key, "k1");
  EXPECT_EQ(sets[2].writes[0].key, "k2");
  EXPECT_EQ(sets[3].reads[0].key, "k2");
  EXPECT_EQ(sets[3].writes[0].key, "k0");
}

TEST(MicroSequencesTest, CyclesAreIndependent) {
  const auto sets = MakeCycleSequence(8, 4);
  // Cycle 2 must use a disjoint key range.
  std::set<std::string> first_keys, second_keys;
  for (int i = 0; i < 4; ++i) {
    for (const auto& r : sets[i].reads) first_keys.insert(r.key);
    for (const auto& w : sets[i].writes) first_keys.insert(w.key);
    for (const auto& r : sets[4 + i].reads) second_keys.insert(r.key);
    for (const auto& w : sets[4 + i].writes) second_keys.insert(w.key);
  }
  for (const auto& k : first_keys) EXPECT_EQ(second_keys.count(k), 0u) << k;
}

TEST(MicroSequencesTest, NonDividingCycleLengthPads) {
  const auto sets = MakeCycleSequence(10, 4);
  EXPECT_EQ(sets.size(), 10u);  // 2 cycles + 2 padding reads.
  EXPECT_TRUE(sets[9].writes.empty());
}

TEST(MicroSequencesTest, PaperTables) {
  const auto t3 = PaperTable3Transactions();
  ASSERT_EQ(t3.size(), 6u);
  EXPECT_EQ(t3[5].reads.size(), 0u);
  EXPECT_EQ(t3[5].writes.size(), 1u);
  const auto t1 = PaperTable1Transactions();
  ASSERT_EQ(t1.size(), 4u);
  EXPECT_TRUE(t1[0].reads.empty());
  EXPECT_EQ(t1[3].reads.size(), 2u);
}

}  // namespace
}  // namespace fabricpp::workload

// --- YCSB (extension) ---

#include "workload/ycsb.h"

namespace fabricpp::workload {
namespace {

TEST(YcsbTest, SeedsAllRecords) {
  YcsbConfig config;
  config.num_records = 100;
  config.value_size = 10;
  YcsbWorkload workload(config);
  statedb::StateDb db;
  workload.SeedState(&db);
  EXPECT_EQ(db.NumKeys(), 100u);
  EXPECT_EQ(db.Get("user0")->value.size(), 10u);
}

TEST(YcsbTest, MixRatiosRespected) {
  struct Case {
    YcsbMix mix;
    double expected_reads;
  };
  for (const Case c : {Case{YcsbMix::kA, 0.5}, Case{YcsbMix::kB, 0.95},
                       Case{YcsbMix::kC, 1.0}, Case{YcsbMix::kF, 0.5}}) {
    YcsbConfig config;
    config.mix = c.mix;
    YcsbWorkload workload(config);
    Rng rng(31);
    int reads = 0;
    constexpr int kSamples = 10000;
    for (int i = 0; i < kSamples; ++i) {
      reads += (workload.NextArgs(rng)[0] == "get");
    }
    EXPECT_NEAR(reads / static_cast<double>(kSamples), c.expected_reads,
                0.02)
        << YcsbMixToString(c.mix);
  }
}

TEST(YcsbTest, MixFUsesReadModifyWrite) {
  YcsbConfig config;
  config.mix = YcsbMix::kF;
  YcsbWorkload workload(config);
  Rng rng(32);
  bool saw_rmw = false;
  for (int i = 0; i < 200; ++i) {
    const auto args = workload.NextArgs(rng);
    if (args[0] != "get") {
      EXPECT_EQ(args[0], "rmw");
      saw_rmw = true;
    }
  }
  EXPECT_TRUE(saw_rmw);
}

TEST(YcsbTest, ArgsAreInvokable) {
  YcsbConfig config;
  config.num_records = 50;
  YcsbWorkload workload(config);
  statedb::StateDb db;
  workload.SeedState(&db);
  const auto registry = chaincode::ChaincodeRegistry::WithBuiltins();
  const chaincode::Chaincode* contract = *registry->Get("kv");
  Rng rng(33);
  for (int i = 0; i < 500; ++i) {
    chaincode::TxContext ctx(&db, 0, false);
    ASSERT_TRUE(contract->Invoke(ctx, workload.NextArgs(rng)).ok());
  }
}

// --- Seed reservations (DESIGN.md §17) ---

/// Seeds `workload` into a fresh database and checks its SeedBound against
/// what the seed table holds: every entry and byte fits the bound, and the
/// table still has the room a reservation of exactly that bound allocates,
/// so seeding neither reallocated nor rehashed.
template <typename W>
const statedb::SeedTable* ExpectBoundCovers(const W& workload,
                                            statedb::StateDb* db) {
  workload.SeedState(db);
  const SeedSize bound = workload.SeedBound();
  const statedb::SeedTable* table = db->seed_table();
  EXPECT_NE(table, nullptr);
  if (table == nullptr) return nullptr;
  EXPECT_LE(table->size(), bound.entries);
  EXPECT_LE(table->arena_bytes(), bound.arena_bytes);
  statedb::SeedTable reserved;
  reserved.Reserve(bound.entries, bound.arena_bytes);
  EXPECT_EQ(table->entry_capacity(), reserved.entry_capacity());
  EXPECT_EQ(table->arena_capacity(), reserved.arena_capacity());
  EXPECT_EQ(table->index_slots(), reserved.index_slots());
  return table;
}

/// Forwards only SeedState, chaincode and NextArgs to the workload it wraps,
/// as the end-to-end benchmark's observer and examples/smallbank_demo.cpp do.
class ForwardingWorkload : public Workload {
 public:
  explicit ForwardingWorkload(const Workload* inner) : inner_(inner) {}
  std::string chaincode() const override { return inner_->chaincode(); }
  void SeedState(statedb::StateDb* db) const override {
    inner_->SeedState(db);
  }
  std::vector<std::string> NextArgs(Rng& rng) const override {
    return inner_->NextArgs(rng);
  }

 private:
  const Workload* inner_;
};

TEST(SeedBoundTest, DecimalDigitsBelowSumsEveryNumber) {
  uint64_t brute = 0;
  for (uint64_t n = 0; n <= 12000; ++n) {
    EXPECT_EQ(DecimalDigitsBelow(n), brute) << n;
    brute += std::to_string(n).size();
  }
  EXPECT_EQ(DecimalDigitsBelow(100000), 488890u);
  EXPECT_EQ(DecimalDigitsBelow(1000000000000), 11888888888890u);
}

TEST(SeedBoundTest, YcsbBoundIsExact) {
  for (const uint64_t records : {1u, 10u, 11u, 999u, 1000u, 12345u}) {
    for (const uint32_t value_size : {0u, 100u}) {
      YcsbConfig config;
      config.num_records = records;
      config.value_size = value_size;
      const YcsbWorkload workload(config);
      statedb::StateDb db;
      const statedb::SeedTable* table = ExpectBoundCovers(workload, &db);
      ASSERT_NE(table, nullptr);
      EXPECT_EQ(table->size(), workload.SeedBound().entries) << records;
      EXPECT_EQ(table->arena_bytes(), workload.SeedBound().arena_bytes)
          << records;
    }
  }
}

TEST(SeedBoundTest, SmallbankBoundCoversItsSeeds) {
  SmallbankConfig config;
  config.num_users = 12345;
  statedb::StateDb db;
  const statedb::SeedTable* table =
      ExpectBoundCovers(SmallbankWorkload(config), &db);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->size(), 2 * config.num_users);

  // Negative balances take a sign; the bound counts it.
  config.num_users = 500;
  config.min_balance = -99999;
  config.max_balance = 5;
  statedb::StateDb signed_db;
  ExpectBoundCovers(SmallbankWorkload(config), &signed_db);
}

TEST(SeedBoundTest, CustomBoundCoversItsSeeds) {
  CustomConfig config;
  config.num_accounts = 12345;
  statedb::StateDb db;
  const statedb::SeedTable* table =
      ExpectBoundCovers(CustomWorkload(config), &db);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->size(), config.num_accounts);
}

TEST(SeedBoundTest, ForwardingWrapperStillSeedsAReservedGenesis) {
  SmallbankConfig smallbank;
  smallbank.num_users = 3000;
  YcsbConfig ycsb;
  ycsb.num_records = 3000;
  const SmallbankWorkload inner_smallbank(smallbank);
  const YcsbWorkload inner_ycsb(ycsb);
  const std::vector<std::pair<const Workload*, SeedSize>> cases = {
      {&inner_smallbank, inner_smallbank.SeedBound()},
      {&inner_ycsb, inner_ycsb.SeedBound()}};
  for (const auto& [inner, bound] : cases) {
    const ForwardingWorkload wrapper(inner);
    const auto genesis = wrapper.SeedGenesis();
    const statedb::SeedTable* table = genesis->seed_table();
    ASSERT_NE(table, nullptr);
    statedb::SeedTable reserved;
    reserved.Reserve(bound.entries, bound.arena_bytes);
    EXPECT_EQ(table->entry_capacity(), reserved.entry_capacity());
    EXPECT_EQ(table->arena_capacity(), reserved.arena_capacity());
    EXPECT_EQ(table->index_slots(), reserved.index_slots());
    EXPECT_EQ(genesis->Fingerprint(), inner->SeedGenesis()->Fingerprint());
  }
}

}  // namespace
}  // namespace fabricpp::workload
