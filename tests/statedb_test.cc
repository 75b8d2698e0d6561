// Tests for src/statedb, src/ledger, src/chaincode (TxContext + built-in
// contracts).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chaincode/builtin_chaincodes.h"
#include "chaincode/chaincode.h"
#include "chaincode/tx_context.h"
#include "common/rng.h"
#include "common/strings.h"
#include "ledger/ledger.h"
#include "statedb/seed_table.h"
#include "statedb/state_db.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"

namespace fabricpp {
namespace {

using chaincode::TxContext;
using proto::Version;
using statedb::StateDb;

// --- StateDb ---

TEST(StateDbTest, MissingKeyNotFound) {
  StateDb db;
  EXPECT_EQ(db.Get("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(db.GetVersion("nope"), proto::kNilVersion);
}

TEST(StateDbTest, SeedInitialStateHasNilVersion) {
  StateDb db;
  db.SeedInitialState("k", "v");
  const auto vv = db.Get("k");
  ASSERT_TRUE(vv.ok());
  EXPECT_EQ(vv->value, "v");
  EXPECT_EQ(vv->version, proto::kNilVersion);
}

TEST(StateDbTest, ApplyWritesBumpsVersions) {
  StateDb db;
  db.SeedInitialState("a", "1");
  db.ApplyWrites({{"a", "2", false}, {"b", "9", false}}, Version{5, 3});
  EXPECT_EQ(db.Get("a")->value, "2");
  EXPECT_EQ(db.GetVersion("a"), (Version{5, 3}));
  EXPECT_EQ(db.GetVersion("b"), (Version{5, 3}));
  EXPECT_EQ(db.NumKeys(), 2u);
}

TEST(StateDbTest, DeleteRemovesKey) {
  StateDb db;
  db.SeedInitialState("a", "1");
  db.ApplyWrites({{"a", "", true}}, Version{1, 0});
  EXPECT_FALSE(db.Get("a").ok());
  EXPECT_EQ(db.GetVersion("a"), proto::kNilVersion);
}

TEST(StateDbTest, LastCommittedBlockTracked) {
  StateDb db;
  EXPECT_EQ(db.last_committed_block(), 0u);
  db.set_last_committed_block(12);
  EXPECT_EQ(db.last_committed_block(), 12u);
}

TEST(StateDbTest, ForEachVisitsAll) {
  StateDb db;
  db.SeedInitialState("a", "1");
  db.SeedInitialState("b", "2");
  int count = 0;
  db.ForEach([&](const std::string&, const statedb::VersionedValue&) {
    ++count;
  });
  EXPECT_EQ(count, 2);
}

TEST(StateDbTest, ApplyBlockAppliesWritesInOrderAndAdvancesHeight) {
  StateDb db;
  db.SeedInitialState("a", "1");
  std::vector<statedb::VersionedWrite> writes;
  writes.push_back({{"a", "2", false}, Version{3, 0}});
  writes.push_back({{"b", "9", false}, Version{3, 1}});
  writes.push_back({{"a", "5", false}, Version{3, 2}});  // Later write wins.
  writes.push_back({{"c", "", true}, Version{3, 2}});    // Delete no-op-safe.
  db.ApplyBlock(writes, 3);
  EXPECT_EQ(db.Get("a")->value, "5");
  EXPECT_EQ(db.GetVersion("a"), (Version{3, 2}));
  EXPECT_EQ(db.Get("b")->value, "9");
  EXPECT_FALSE(db.Get("c").ok());
  EXPECT_EQ(db.last_committed_block(), 3u);
}

// --- StateDb over a shared genesis layer ---

using Entries = std::map<std::string, std::pair<std::string, Version>>;

Entries Collect(const StateDb& db) {
  Entries out;
  db.ForEach([&](const std::string& key, const statedb::VersionedValue& vv) {
    EXPECT_TRUE(out.emplace(key, std::make_pair(vv.value, vv.version)).second)
        << "ForEach visited " << key << " twice";
  });
  return out;
}

/// The layered database must be indistinguishable from the flat one.
void ExpectSameView(const StateDb& flat, const StateDb& layered,
                    const std::vector<std::string>& keys,
                    const std::string& where) {
  for (const std::string& key : keys) {
    const auto want = flat.Get(key);
    const auto got = layered.Get(key);
    ASSERT_EQ(got.ok(), want.ok()) << where << " key " << key;
    if (want.ok()) {
      EXPECT_EQ(got->value, want->value) << where << " key " << key;
      EXPECT_EQ(got->version, want->version) << where << " key " << key;
    }
    EXPECT_EQ(layered.GetVersion(key), flat.GetVersion(key))
        << where << " key " << key;
  }
  EXPECT_EQ(layered.NumKeys(), flat.NumKeys()) << where;
  EXPECT_EQ(Collect(layered), Collect(flat)) << where;
  EXPECT_EQ(layered.Fingerprint(), flat.Fingerprint()) << where;
}

std::shared_ptr<const StateDb> SeededGenesis(uint32_t num_keys) {
  auto genesis = std::make_shared<StateDb>();
  for (uint32_t i = 0; i < num_keys; ++i) {
    genesis->SeedInitialState(StrFormat("k%u", i), StrFormat("g%u", i));
  }
  return genesis;
}

TEST(StateDbTest, GenesisLayerMatchesFlatDatabaseUnderRandomWrites) {
  // Keys k0..k19 are genesis keys, k20..k39 are fresh. A random sequence of
  // seeds, per-tx writes and whole blocks overwrites and deletes genesis
  // keys, re-writes them after a delete, and adds and drops fresh keys.
  constexpr uint32_t kGenesisKeys = 20;
  constexpr uint32_t kKeys = 40;
  const auto genesis = SeededGenesis(kGenesisKeys);
  StateDb flat;
  genesis->ForEach([&](const std::string& key,
                       const statedb::VersionedValue& vv) {
    flat.SeedInitialState(key, vv.value);
  });
  StateDb layered(genesis);
  std::vector<std::string> keys;
  for (uint32_t i = 0; i < kKeys; ++i) keys.push_back(StrFormat("k%u", i));
  ExpectSameView(flat, layered, keys, "genesis");

  Rng rng(0x6e6e5);
  auto random_write = [&](uint32_t n) {
    proto::WriteItem w;
    w.key = keys[rng.NextUint64(kKeys)];
    w.is_delete = rng.NextUint64(3) == 0;
    if (!w.is_delete) w.value = StrFormat("v%u", n);
    return w;
  };
  for (uint32_t step = 1; step <= 400; ++step) {
    const std::string where = "step " + std::to_string(step);
    switch (rng.NextUint64(3)) {
      case 0: {
        const std::string& key = keys[rng.NextUint64(kKeys)];
        flat.SeedInitialState(key, StrFormat("s%u", step));
        layered.SeedInitialState(key, StrFormat("s%u", step));
        break;
      }
      case 1: {
        const std::vector<proto::WriteItem> writes = {random_write(step),
                                                      random_write(step + 1)};
        flat.ApplyWrites(writes, Version{step, 0});
        layered.ApplyWrites(writes, Version{step, 0});
        break;
      }
      default: {
        std::vector<statedb::VersionedWrite> block;
        for (uint32_t tx = 0; tx < 4; ++tx) {
          block.push_back({random_write(step + tx), Version{step, tx}});
        }
        flat.ApplyBlock(block, step);
        layered.ApplyBlock(block, step);
        break;
      }
    }
    ExpectSameView(flat, layered, keys, where);
  }
}

TEST(StateDbTest, LayersOnOneGenesisAreIsolated) {
  const auto genesis = SeededGenesis(3);  // k0..k2
  const std::string genesis_fingerprint = genesis->Fingerprint();
  StateDb x(genesis);
  StateDb y(genesis);
  x.ApplyWrites({{"k0", "x0", false}, {"fresh", "x", false}}, Version{1, 0});
  y.ApplyWrites({{"k1", "", true}}, Version{1, 0});
  y.ApplyBlock({{{"k2", "y2", false}, Version{2, 0}}}, 2);

  EXPECT_EQ(x.Get("k0")->value, "x0");
  EXPECT_EQ(y.Get("k0")->value, "g0");
  EXPECT_EQ(y.GetVersion("k0"), proto::kNilVersion);
  EXPECT_FALSE(y.Get("fresh").ok());
  EXPECT_EQ(x.Get("k1")->value, "g1");
  EXPECT_FALSE(y.Get("k1").ok());
  EXPECT_EQ(x.Get("k2")->value, "g2");
  EXPECT_EQ(y.GetVersion("k2"), (Version{2, 0}));
  EXPECT_EQ(x.NumKeys(), 4u);
  EXPECT_EQ(y.NumKeys(), 2u);
  EXPECT_EQ(x.last_committed_block(), 0u);
  EXPECT_EQ(y.last_committed_block(), 2u);

  EXPECT_EQ(genesis->Fingerprint(), genesis_fingerprint);
  EXPECT_EQ(genesis->NumKeys(), 3u);
  EXPECT_EQ(genesis->Get("k1")->value, "g1");
  EXPECT_FALSE(genesis->Get("fresh").ok());
}

TEST(StateDbTest, SharedGenesisConcurrentLayers) {
  // Each thread owns one layer and writes it while every thread reads the
  // shared genesis, through its layer and directly. Run under TSan in CI.
  constexpr uint32_t kGenesisKeys = 2000;
  constexpr uint32_t kThreads = 4;
  const auto genesis = SeededGenesis(kGenesisKeys);
  auto replay = [](uint32_t t, StateDb* db) {
    for (uint32_t i = 0; i < kGenesisKeys; ++i) {
      const std::string key = StrFormat("k%u", (i * 7 + t) % kGenesisKeys);
      const auto seen = db->Get(key);
      const std::string next =
          (seen.ok() ? seen->value : std::string("none")) + "+" +
          std::to_string(t);
      std::vector<statedb::VersionedWrite> block = {
          {{key, next, false}, Version{i + 1, 0}},
          {{StrFormat("t%u-%u", t, i), "x", false},
           Version{i + 1, 1}}};
      if (i % 5 == t) {
        block.push_back(
            {{StrFormat("k%u", i), "", true}, Version{i + 1, 2}});
      }
      db->ApplyBlock(block, i + 1);
    }
  };

  std::vector<StateDb> layers(kThreads, StateDb(genesis));
  std::vector<uint32_t> genesis_misses(kThreads, 0);
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      replay(t, &layers[t]);
      for (uint32_t i = 0; i < kGenesisKeys; ++i) {
        if (!genesis->Get(StrFormat("k%u", i)).ok()) ++genesis_misses[t];
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (uint32_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(genesis_misses[t], 0u) << "thread " << t;
    StateDb flat;
    genesis->ForEach([&](const std::string& key,
                         const statedb::VersionedValue& vv) {
      flat.SeedInitialState(key, vv.value);
    });
    replay(t, &flat);
    EXPECT_EQ(layers[t].NumKeys(), flat.NumKeys()) << "thread " << t;
    EXPECT_EQ(layers[t].Fingerprint(), flat.Fingerprint()) << "thread " << t;
  }
  EXPECT_EQ(genesis->NumKeys(), kGenesisKeys);
}

// --- The seed table under a StateDb ---

TEST(SeedTableTest, PutFindAcrossRehashes) {
  statedb::SeedTable table;
  EXPECT_FALSE(table.Contains("absent"));
  for (uint32_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(table.Put(StrFormat("k%u", i), std::to_string(i * 3)));
  }
  EXPECT_EQ(table.size(), 1000u);
  for (uint32_t i = 0; i < 1000; ++i) {
    const auto entry = table.Find(StrFormat("k%u", i));
    ASSERT_TRUE(entry.has_value()) << i;
    EXPECT_EQ(table.key(*entry), StrFormat("k%u", i));
    EXPECT_EQ(table.value(*entry), std::to_string(i * 3));
  }
  EXPECT_FALSE(table.Contains("k1000"));
}

TEST(SeedTableTest, PutsWithinReserveNeitherReallocateNorRehash) {
  statedb::SeedTable table;
  table.Reserve(1000, 8000);
  const size_t entries = table.entry_capacity();
  const size_t arena = table.arena_capacity();
  const size_t slots = table.index_slots();
  EXPECT_GE(entries, 1000u);
  EXPECT_GE(arena, 8000u);
  EXPECT_EQ(slots, 2048u);  // The least power of two at most half full.
  for (uint32_t i = 0; i < 1000; ++i) {
    table.Put(StrFormat("k%03u", i), StrFormat("v%03u", i));
  }
  EXPECT_EQ(table.size(), 1000u);
  EXPECT_EQ(table.arena_bytes(), 8000u);
  EXPECT_EQ(table.entry_capacity(), entries);
  EXPECT_EQ(table.arena_capacity(), arena);
  EXPECT_EQ(table.index_slots(), slots);
}

TEST(SeedTableTest, ReservedTableMatchesUnreserved) {
  // Reserve for 100 entries, then put 300 (one key twice): the puts past
  // the reservation grow the table as an unreserved one grows.
  statedb::SeedTable reserved;
  statedb::SeedTable grown;
  reserved.Reserve(100, 600);
  StateDb reserved_db;
  StateDb grown_db;
  reserved_db.ReserveSeeds(100, 600);
  const auto put = [&](const std::string& key, const std::string& value) {
    EXPECT_EQ(reserved.Put(key, value), grown.Put(key, value)) << key;
    reserved_db.SeedInitialState(key, value);
    grown_db.SeedInitialState(key, value);
  };
  put("repeated", "first");
  for (uint32_t i = 0; i < 300; ++i) {
    put(StrFormat("k%u", i), std::to_string(i * 7));
  }
  put("repeated", "last");
  EXPECT_GT(reserved.entry_capacity(), 100u);
  ASSERT_EQ(reserved.size(), grown.size());
  EXPECT_EQ(reserved.size(), 301u);
  EXPECT_EQ(reserved.arena_bytes(), grown.arena_bytes());
  EXPECT_EQ(reserved.index_slots(), grown.index_slots());
  for (uint32_t entry = 0; entry < reserved.size(); ++entry) {
    EXPECT_EQ(reserved.key(entry), grown.key(entry));
    EXPECT_EQ(reserved.value(entry), grown.value(entry));
    EXPECT_EQ(reserved.Find(reserved.key(entry)), entry);
    EXPECT_EQ(grown.Find(grown.key(entry)), entry);
  }
  EXPECT_EQ(reserved.value(*reserved.Find("repeated")), "last");
  EXPECT_FALSE(reserved.Contains("k300"));
  EXPECT_EQ(reserved_db.NumKeys(), grown_db.NumKeys());
  EXPECT_EQ(reserved_db.Fingerprint(), grown_db.Fingerprint());
  EXPECT_EQ(reserved_db.seed_table()->size(), 301u);
}

TEST(StateDbTest, ReserveSeedsOnASharedTableIsANoOp) {
  auto genesis = std::make_shared<StateDb>();
  genesis->SeedInitialState("a", "1");
  const statedb::SeedTable* table = genesis->seed_table();
  const size_t entries = table->entry_capacity();
  const size_t arena = table->arena_capacity();
  const size_t slots = table->index_slots();

  StateDb layered(genesis);
  EXPECT_EQ(layered.seed_table(), table);
  layered.ReserveSeeds(100000, 1 << 20);
  genesis->ReserveSeeds(100000, 1 << 20);
  EXPECT_EQ(table->entry_capacity(), entries);
  EXPECT_EQ(table->arena_capacity(), arena);
  EXPECT_EQ(table->index_slots(), slots);
  EXPECT_EQ(layered.seed_table(), table);

  // Sole owner again: the reservation reaches the table.
  StateDb fresh;
  EXPECT_EQ(fresh.seed_table(), nullptr);
  fresh.ReserveSeeds(100000, 1 << 20);
  ASSERT_NE(fresh.seed_table(), nullptr);
  EXPECT_GE(fresh.seed_table()->entry_capacity(), 100000u);
  EXPECT_EQ(fresh.NumKeys(), 0u);
}

TEST(StateDbTest, RepeatedSeedLastWinsAndCountsOnce) {
  StateDb db;
  db.SeedInitialState("a", "1");
  db.SeedInitialState("b", "2");
  db.SeedInitialState("a", "3");
  EXPECT_EQ(db.Get("a")->value, "3");
  EXPECT_EQ(db.GetVersion("a"), proto::kNilVersion);
  EXPECT_EQ(db.NumKeys(), 2u);
  EXPECT_EQ(Collect(db), (Entries{{"a", {"3", proto::kNilVersion}},
                                  {"b", {"2", proto::kNilVersion}}}));

  // Seeding a layer over a genesis lands in the layer and still wins.
  const auto genesis = std::make_shared<const StateDb>(db);
  StateDb layered(genesis);
  layered.SeedInitialState("a", "4");
  EXPECT_EQ(layered.Get("a")->value, "4");
  EXPECT_EQ(layered.NumKeys(), 2u);
  EXPECT_EQ(genesis->Get("a")->value, "3");
}

TEST(StateDbTest, SeedKeepsEmptyValuesEmbeddedNulsAndLargeValues) {
  const std::string nul_key("a\0b", 3);
  const std::string large(70 * 1024, 'x');
  auto genesis = std::make_shared<StateDb>();
  genesis->SeedInitialState("empty", "");
  genesis->SeedInitialState(nul_key, "nul");
  genesis->SeedInitialState("a", "prefix of the nul key");
  genesis->SeedInitialState("large", large);
  StateDb layered(genesis);
  for (const StateDb* db : {static_cast<const StateDb*>(genesis.get()),
                            static_cast<const StateDb*>(&layered)}) {
    ASSERT_TRUE(db->Get("empty").ok());
    EXPECT_EQ(db->Get("empty")->value, "");
    EXPECT_EQ(db->Get(nul_key)->value, "nul");
    EXPECT_EQ(db->Get("a")->value, "prefix of the nul key");
    EXPECT_EQ(db->Get("large")->value, large);
    EXPECT_EQ(db->NumKeys(), 4u);
  }
  const Entries seen = Collect(layered);
  EXPECT_EQ(seen.at(nul_key).first, "nul");
  EXPECT_EQ(seen.at("large").first, large);

  StateDb flat;
  flat.ApplyWrites({{"empty", "", false},
                    {nul_key, "nul", false},
                    {"a", "prefix of the nul key", false},
                    {"large", large, false}},
                   proto::kNilVersion);
  EXPECT_EQ(layered.Fingerprint(), flat.Fingerprint());
}

TEST(StateDbTest, TombstonedSeededKeyRevives) {
  auto genesis = std::make_shared<StateDb>();
  genesis->SeedInitialState("k", "g");
  for (const bool own_table : {true, false}) {
    SCOPED_TRACE(own_table ? "own table" : "shared genesis");
    StateDb db;
    if (own_table) {
      db.SeedInitialState("k", "g");
    } else {
      db = StateDb(genesis);
    }
    db.ApplyWrites({{"k", "", true}}, Version{1, 0});
    EXPECT_FALSE(db.Get("k").ok());
    EXPECT_EQ(db.NumKeys(), 0u);
    EXPECT_TRUE(Collect(db).empty());
    db.ApplyWrites({{"k", "", true}}, Version{2, 0});  // Twice is a no-op.
    EXPECT_EQ(db.NumKeys(), 0u);

    db.ApplyBlock({{{"k", "r", false}, Version{3, 1}}}, 3);
    EXPECT_EQ(db.Get("k")->value, "r");
    EXPECT_EQ(db.GetVersion("k"), (Version{3, 1}));
    EXPECT_EQ(db.NumKeys(), 1u);

    db.ApplyWrites({{"k", "", true}}, Version{4, 0});
    db.SeedInitialState("k", "s");  // A re-seed revives it at kNilVersion.
    EXPECT_EQ(db.Get("k")->value, "s");
    EXPECT_EQ(db.GetVersion("k"), proto::kNilVersion);
    EXPECT_EQ(db.NumKeys(), 1u);
  }
  EXPECT_EQ(genesis->Get("k")->value, "g");
}

TEST(StateDbTest, GetVersionReadsOnlyTheLocalLayer) {
  auto genesis = std::make_shared<StateDb>();
  genesis->SeedInitialState("seeded", "g");
  genesis->SeedInitialState("deleted", "g");
  StateDb db(genesis);
  db.ApplyWrites({{"written", "w", false}, {"deleted", "", true}},
                 Version{7, 2});
  EXPECT_EQ(db.GetVersion("written"), (Version{7, 2}));
  EXPECT_EQ(db.GetVersion("seeded"), proto::kNilVersion);
  EXPECT_EQ(db.GetVersion("deleted"), proto::kNilVersion);
  EXPECT_EQ(db.GetVersion("never"), proto::kNilVersion);
  EXPECT_TRUE(db.Get("seeded").ok());
  EXPECT_FALSE(db.Get("deleted").ok());
}

TEST(StateDbTest, SmallbankGenesisFingerprintIsPinned) {
  // The paper's 100k-user Smallbank genesis (200k keys). The hex is the
  // digest the hash-map representation computed for the same entries, so
  // it pins that the seed table left the canonical encoding unchanged.
  const workload::SmallbankWorkload workload{workload::SmallbankConfig{}};
  const auto genesis = workload.SeedGenesis();
  StateDb flat;
  workload.SeedState(&flat);
  const StateDb layered(genesis);
  EXPECT_EQ(flat.NumKeys(), 200000u);
  EXPECT_EQ(layered.NumKeys(), 200000u);
  const std::string kPinned =
      "874abc1a0c212489be6f61b3a8444a02c51de6a237c063331e78e2a9212bc59f";
  EXPECT_EQ(flat.Fingerprint(), kPinned);
  EXPECT_EQ(layered.Fingerprint(), kPinned);
}

TEST(StateDbTest, YcsbGenesisFingerprintIsPinned) {
  // The end-to-end benchmark's YCSB-B genesis: 100k records of 100-byte
  // values. The hex is the digest of the table grown without a
  // reservation, so it pins that reserving left the state unchanged.
  workload::YcsbConfig config;
  config.mix = workload::YcsbMix::kB;
  config.num_records = 100000;
  config.value_size = 100;
  const workload::YcsbWorkload workload(config);
  const auto genesis = workload.SeedGenesis();
  const StateDb layered(genesis);
  EXPECT_EQ(layered.NumKeys(), 100000u);
  const std::string kPinned =
      "6bdc9f4da42478cf728d66a6bbbe909431b6c2b4daea688dcb40f88c3ce81e12";
  EXPECT_EQ(genesis->Fingerprint(), kPinned);
  EXPECT_EQ(layered.Fingerprint(), kPinned);
}

// --- Ledger ---

proto::Transaction MakeTx(const std::string& id) {
  proto::Transaction tx;
  tx.tx_id = id;
  return tx;
}

ledger::StoredBlock NextBlock(const ledger::Ledger& ledger,
                              std::vector<proto::Transaction> txs) {
  ledger::StoredBlock stored;
  stored.block.header.number = ledger.Height();
  stored.block.header.previous_hash = ledger.LastHash();
  stored.block.transactions = std::move(txs);
  stored.block.SealDataHash();
  stored.validation_codes.assign(stored.block.transactions.size(),
                                 proto::TxValidationCode::kValid);
  return stored;
}

TEST(LedgerTest, StartsWithGenesis) {
  ledger::Ledger ledger;
  EXPECT_EQ(ledger.Height(), 1u);
  EXPECT_TRUE(ledger.VerifyChain().ok());
}

TEST(LedgerTest, AppendAndRetrieve) {
  ledger::Ledger ledger;
  ASSERT_TRUE(ledger.Append(NextBlock(ledger, {MakeTx("t1"), MakeTx("t2")}))
                  .ok());
  EXPECT_EQ(ledger.Height(), 2u);
  const auto block = ledger.GetBlock(1);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ((*block)->block.transactions.size(), 2u);
  const auto loc = ledger.FindTransaction("t2");
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->first, 1u);
  EXPECT_EQ(loc->second, 1u);
  EXPECT_TRUE(ledger.VerifyChain().ok());
}

TEST(LedgerTest, InvalidTransactionsAreStoredToo) {
  // Paper §2.2.4: the ledger contains both valid and invalid transactions.
  ledger::Ledger ledger;
  ledger::StoredBlock stored = NextBlock(ledger, {MakeTx("ok"), MakeTx("bad")});
  stored.validation_codes[1] = proto::TxValidationCode::kMvccConflict;
  ASSERT_TRUE(ledger.Append(std::move(stored)).ok());
  EXPECT_EQ(ledger.TotalTransactions(), 2u);
  EXPECT_EQ(ledger.TotalValidTransactions(), 1u);
  EXPECT_EQ(*ledger.GetValidationCode("bad"),
            proto::TxValidationCode::kMvccConflict);
}

TEST(LedgerTest, RejectsWrongNumber) {
  ledger::Ledger ledger;
  ledger::StoredBlock stored = NextBlock(ledger, {});
  stored.block.header.number = 5;
  stored.block.SealDataHash();
  EXPECT_EQ(ledger.Append(std::move(stored)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(LedgerTest, RejectsBrokenHashLink) {
  ledger::Ledger ledger;
  ledger::StoredBlock stored = NextBlock(ledger, {});
  stored.block.header.previous_hash.fill(0xee);
  EXPECT_FALSE(ledger.Append(std::move(stored)).ok());
}

TEST(LedgerTest, RejectsDataHashMismatch) {
  ledger::Ledger ledger;
  ledger::StoredBlock stored = NextBlock(ledger, {MakeTx("t")});
  stored.block.transactions[0].client = "tampered-after-seal";
  EXPECT_FALSE(ledger.Append(std::move(stored)).ok());
}

TEST(LedgerTest, RejectsCodeCountMismatch) {
  ledger::Ledger ledger;
  ledger::StoredBlock stored = NextBlock(ledger, {MakeTx("t")});
  stored.validation_codes.clear();
  EXPECT_EQ(ledger.Append(std::move(stored)).code(),
            StatusCode::kInvalidArgument);
}

TEST(LedgerTest, GetBlockOutOfRange) {
  ledger::Ledger ledger;
  EXPECT_EQ(ledger.GetBlock(9).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ledger.FindTransaction("nope").status().code(),
            StatusCode::kNotFound);
}

// --- TxContext ---

TEST(TxContextTest, RecordsReadsWithVersions) {
  StateDb db;
  db.SeedInitialState("a", "1");
  db.ApplyWrites({{"b", "2", false}}, Version{3, 7});
  TxContext ctx(&db, 3, false);
  EXPECT_EQ(*ctx.GetState("a"), "1");
  EXPECT_EQ(*ctx.GetState("b"), "2");
  const auto& rwset = ctx.rwset();
  ASSERT_EQ(rwset.reads.size(), 2u);
  EXPECT_EQ(rwset.reads[0].version, proto::kNilVersion);
  EXPECT_EQ(rwset.reads[1].version, (Version{3, 7}));
}

TEST(TxContextTest, MissingReadRecordedWithNilVersion) {
  StateDb db;
  TxContext ctx(&db, 0, false);
  EXPECT_EQ(ctx.GetState("ghost").status().code(), StatusCode::kNotFound);
  ASSERT_EQ(ctx.rwset().reads.size(), 1u);
  EXPECT_EQ(ctx.rwset().reads[0].version, proto::kNilVersion);
}

TEST(TxContextTest, DuplicateReadRecordedOnce) {
  StateDb db;
  db.SeedInitialState("a", "1");
  TxContext ctx(&db, 0, false);
  (void)ctx.GetState("a");
  (void)ctx.GetState("a");
  EXPECT_EQ(ctx.rwset().reads.size(), 1u);
}

TEST(TxContextTest, WritesAreBufferedNotApplied) {
  StateDb db;
  db.SeedInitialState("a", "1");
  TxContext ctx(&db, 0, false);
  ctx.PutState("a", "2");
  EXPECT_EQ(db.Get("a")->value, "1");  // Simulation never touches state.
  ASSERT_EQ(ctx.rwset().writes.size(), 1u);
  EXPECT_EQ(ctx.rwset().writes[0].value, "2");
}

TEST(TxContextTest, ReadYourOwnWrite) {
  StateDb db;
  db.SeedInitialState("a", "old");
  TxContext ctx(&db, 0, false);
  ctx.PutState("a", "new");
  EXPECT_EQ(*ctx.GetState("a"), "new");
  // No read recorded for an own-write access.
  EXPECT_TRUE(ctx.rwset().reads.empty());
}

TEST(TxContextTest, ReadAfterOwnDeleteIsNotFound) {
  StateDb db;
  db.SeedInitialState("a", "x");
  TxContext ctx(&db, 0, false);
  ctx.DeleteState("a");
  EXPECT_EQ(ctx.GetState("a").status().code(), StatusCode::kNotFound);
}

TEST(TxContextTest, LastWritePerKeyWins) {
  StateDb db;
  TxContext ctx(&db, 0, false);
  ctx.PutState("a", "1");
  ctx.PutState("a", "2");
  ASSERT_EQ(ctx.rwset().writes.size(), 1u);
  EXPECT_EQ(ctx.rwset().writes[0].value, "2");
  ctx.DeleteState("a");
  ASSERT_EQ(ctx.rwset().writes.size(), 1u);
  EXPECT_TRUE(ctx.rwset().writes[0].is_delete);
}

TEST(TxContextTest, StaleCheckDetectsNewerBlock) {
  // Paper §5.2.1 / Figure 6: a read observing a version from a block newer
  // than the simulation snapshot aborts with kStaleRead.
  StateDb db;
  db.ApplyWrites({{"balB", "100", false}}, Version{5, 0});
  TxContext ctx(&db, /*snapshot_block=*/4, /*stale_check_enabled=*/true);
  EXPECT_EQ(ctx.GetState("balB").status().code(), StatusCode::kStaleRead);
}

TEST(TxContextTest, StaleCheckAcceptsOlderBlock) {
  StateDb db;
  db.ApplyWrites({{"balA", "70", false}}, Version{4, 0});
  TxContext ctx(&db, 4, true);
  EXPECT_EQ(*ctx.GetState("balA"), "70");
}

TEST(TxContextTest, StaleCheckDisabledReadsThrough) {
  StateDb db;
  db.ApplyWrites({{"k", "v", false}}, Version{9, 0});
  TxContext ctx(&db, 1, false);
  EXPECT_TRUE(ctx.GetState("k").ok());  // Vanilla: no early detection.
}

TEST(TxContextTest, IntHelpers) {
  StateDb db;
  db.SeedInitialState("n", "41");
  TxContext ctx(&db, 0, false);
  EXPECT_EQ(*ctx.GetInt("n"), 41);
  ctx.PutInt("n", 42);
  EXPECT_EQ(*ctx.GetInt("n"), 42);
  db.SeedInitialState("junk", "abc");
  EXPECT_EQ(ctx.GetInt("junk").status().code(), StatusCode::kInternal);
}

// --- Built-in chaincodes ---

class ChaincodeFixture : public ::testing::Test {
 protected:
  ChaincodeFixture() : registry_(chaincode::ChaincodeRegistry::WithBuiltins()) {}

  Status Invoke(const std::string& name, std::vector<std::string> args,
                proto::ReadWriteSet* out = nullptr) {
    const auto contract = registry_->Get(name);
    if (!contract.ok()) return contract.status();
    TxContext ctx(&db_, db_.last_committed_block(), false);
    const Status status = (*contract)->Invoke(ctx, args);
    if (out != nullptr) *out = ctx.TakeRwSet();
    return status;
  }

  /// Applies a successful invocation's writes (mini-commit for tests).
  Status Apply(const std::string& name, std::vector<std::string> args) {
    proto::ReadWriteSet rwset;
    FABRICPP_RETURN_IF_ERROR(Invoke(name, std::move(args), &rwset));
    next_version_.tx_num++;
    db_.ApplyWrites(rwset.writes, next_version_);
    return Status::OK();
  }

  statedb::StateDb db_;
  proto::Version next_version_{1, 0};
  std::unique_ptr<chaincode::ChaincodeRegistry> registry_;
};

TEST_F(ChaincodeFixture, RegistryLookup) {
  EXPECT_TRUE(registry_->Get("smallbank").ok());
  EXPECT_TRUE(registry_->Get("blank").ok());
  EXPECT_EQ(registry_->Get("missing").status().code(), StatusCode::kNotFound);
}

TEST_F(ChaincodeFixture, RegistryRejectsDuplicates) {
  EXPECT_EQ(registry_->Register(std::make_unique<chaincode::BlankChaincode>())
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ChaincodeFixture, BlankHasNoEffects) {
  proto::ReadWriteSet rwset;
  EXPECT_TRUE(Invoke("blank", {}, &rwset).ok());
  EXPECT_TRUE(rwset.reads.empty());
  EXPECT_TRUE(rwset.writes.empty());
}

TEST_F(ChaincodeFixture, KvPutGetDel) {
  EXPECT_TRUE(Apply("kv", {"put", "name", "fabric"}).ok());
  EXPECT_EQ(db_.Get("name")->value, "fabric");
  proto::ReadWriteSet rwset;
  EXPECT_TRUE(Invoke("kv", {"get", "name"}, &rwset).ok());
  EXPECT_EQ(rwset.reads.size(), 1u);
  EXPECT_TRUE(Apply("kv", {"del", "name"}).ok());
  EXPECT_FALSE(db_.Get("name").ok());
}

TEST_F(ChaincodeFixture, KvRejectsBadArgs) {
  EXPECT_EQ(Invoke("kv", {}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Invoke("kv", {"put", "only-key"}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Invoke("kv", {"zap", "k"}).code(), StatusCode::kInvalidArgument);
}

TEST_F(ChaincodeFixture, AssetTransferMovesFunds) {
  ASSERT_TRUE(Apply("asset_transfer", {"open", "A", "100"}).ok());
  ASSERT_TRUE(Apply("asset_transfer", {"open", "B", "50"}).ok());
  ASSERT_TRUE(Apply("asset_transfer", {"transfer", "A", "B", "30"}).ok());
  EXPECT_EQ(db_.Get("bal_A")->value, "70");
  EXPECT_EQ(db_.Get("bal_B")->value, "80");
}

TEST_F(ChaincodeFixture, AssetTransferInsufficientFunds) {
  ASSERT_TRUE(Apply("asset_transfer", {"open", "A", "10"}).ok());
  ASSERT_TRUE(Apply("asset_transfer", {"open", "B", "0"}).ok());
  EXPECT_EQ(Invoke("asset_transfer", {"transfer", "A", "B", "30"}).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ChaincodeFixture, SmallbankOperations) {
  ASSERT_TRUE(Apply("smallbank", {"deposit_checking", "1", "100"}).ok());
  ASSERT_TRUE(Apply("smallbank", {"transact_savings", "1", "200"}).ok());
  EXPECT_EQ(db_.Get("c_1")->value, "100");
  EXPECT_EQ(db_.Get("s_1")->value, "200");

  ASSERT_TRUE(Apply("smallbank", {"send_payment", "1", "2", "40"}).ok());
  EXPECT_EQ(db_.Get("c_1")->value, "60");
  EXPECT_EQ(db_.Get("c_2")->value, "40");

  ASSERT_TRUE(Apply("smallbank", {"write_check", "1", "10"}).ok());
  EXPECT_EQ(db_.Get("c_1")->value, "50");

  ASSERT_TRUE(Apply("smallbank", {"amalgamate", "1"}).ok());
  EXPECT_EQ(db_.Get("c_1")->value, "250");
  EXPECT_EQ(db_.Get("s_1")->value, "0");

  proto::ReadWriteSet rwset;
  EXPECT_TRUE(Invoke("smallbank", {"query", "1"}, &rwset).ok());
  EXPECT_EQ(rwset.reads.size(), 2u);
  EXPECT_TRUE(rwset.writes.empty());
}

TEST_F(ChaincodeFixture, SmallbankRejectsBadArgs) {
  EXPECT_FALSE(Invoke("smallbank", {}).ok());
  EXPECT_FALSE(Invoke("smallbank", {"send_payment", "1"}).ok());
  EXPECT_FALSE(Invoke("smallbank", {"warp", "1"}).ok());
}

TEST_F(ChaincodeFixture, CustomReadsAndWrites) {
  db_.SeedInitialState("acc_1", "10");
  db_.SeedInitialState("acc_2", "20");
  proto::ReadWriteSet rwset;
  ASSERT_TRUE(
      Invoke("custom", {"2", "acc_1", "acc_2", "acc_3", "acc_4"}, &rwset)
          .ok());
  EXPECT_EQ(rwset.reads.size(), 2u);
  ASSERT_EQ(rwset.writes.size(), 2u);
  // Writes derive from the read sum (30) plus a per-slot salt.
  EXPECT_EQ(rwset.writes[0].value, "30");
  EXPECT_EQ(rwset.writes[1].value, "31");
}

TEST_F(ChaincodeFixture, CustomRejectsBadCounts) {
  EXPECT_FALSE(Invoke("custom", {}).ok());
  EXPECT_FALSE(Invoke("custom", {"5", "only_one"}).ok());
  EXPECT_FALSE(Invoke("custom", {"-1"}).ok());
}

}  // namespace
}  // namespace fabricpp
