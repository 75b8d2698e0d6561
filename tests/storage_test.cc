// Tests for src/storage: skip list, WAL, SSTables and the LSM Db
// (including crash recovery, compaction, and a randomized model-check
// against std::map).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "common/rng.h"
#include "common/strings.h"
#include "storage/db.h"
#include "storage/skiplist.h"
#include "storage/sstable.h"
#include "storage/wal.h"

namespace fabricpp::storage {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test.
class StorageFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("fabricpp_storage_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

// --- SkipList ---

TEST(SkipListTest, InsertFindOverwrite) {
  SkipList<int> list;
  EXPECT_TRUE(list.Insert("b", 2));
  EXPECT_TRUE(list.Insert("a", 1));
  EXPECT_FALSE(list.Insert("a", 10));  // Overwrite.
  EXPECT_EQ(*list.Find("a"), 10);
  EXPECT_EQ(*list.Find("b"), 2);
  EXPECT_EQ(list.Find("c"), nullptr);
  EXPECT_EQ(list.size(), 2u);
}

TEST(SkipListTest, IterationIsSorted) {
  SkipList<int> list;
  Rng rng(11);
  std::map<std::string, int> model;
  for (int i = 0; i < 2000; ++i) {
    const std::string key = StrFormat("k%05llu",
                                      static_cast<unsigned long long>(
                                          rng.NextUint64(3000)));
    list.Insert(key, i);
    model[key] = i;
  }
  EXPECT_EQ(list.size(), model.size());
  auto expected = model.begin();
  for (auto it = list.NewIterator(); it.Valid(); it.Next(), ++expected) {
    ASSERT_NE(expected, model.end());
    EXPECT_EQ(it.key(), expected->first);
    EXPECT_EQ(it.value(), expected->second);
  }
  EXPECT_EQ(expected, model.end());
}

// --- WAL ---

TEST_F(StorageFixture, WalRoundTrip) {
  const std::string path = Path("wal.log");
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    for (int i = 0; i < 100; ++i) {
      Bytes record = {static_cast<uint8_t>(i), 42};
      ASSERT_TRUE(writer.Append(record, false).ok());
    }
    ASSERT_TRUE(writer.Sync().ok());
  }
  std::vector<Bytes> records;
  const auto count =
      ReplayWal(path, [&](const Bytes& r) {
        records.push_back(r);
        return Status::OK();
      });
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 100u);
  EXPECT_EQ(records[7][0], 7);
}

TEST_F(StorageFixture, WalMissingFileIsEmpty) {
  const auto count =
      ReplayWal(Path("nope.log"), [](const Bytes&) { return Status::OK(); });
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
}

TEST_F(StorageFixture, WalTornTailStopsCleanly) {
  const std::string path = Path("wal.log");
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.Append({1, 2, 3}, true).ok());
    ASSERT_TRUE(writer.Append({4, 5, 6}, true).ok());
  }
  // Truncate mid-record.
  const auto size = fs::file_size(path);
  fs::resize_file(path, size - 2);
  size_t records = 0;
  const auto count = ReplayWal(path, [&](const Bytes&) {
    ++records;
    return Status::OK();
  });
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);  // First record intact, torn second dropped.
}

TEST_F(StorageFixture, WalCorruptedCrcFinalRecordToleratedAsTornTail) {
  const std::string path = Path("wal.log");
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.Append({9, 9, 9}, true).ok());
  }
  // Flip a payload byte of the final (only) record: indistinguishable from
  // a torn tail, so replay stops cleanly with zero records.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  std::fseek(f, 8, SEEK_SET);
  std::fputc(0xff, f);
  std::fclose(f);
  const auto count =
      ReplayWal(path, [](const Bytes&) { return Status::OK(); });
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
}

TEST_F(StorageFixture, WalMidLogCorruptionFailsReplay) {
  const std::string path = Path("wal.log");
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.Append({9, 9, 9}, true).ok());
    ASSERT_TRUE(writer.Append({7, 7, 7}, true).ok());
  }
  // Flip a payload byte of the FIRST record. Valid records follow, so this
  // cannot be a torn tail — replay must fail loudly instead of silently
  // dropping a committed record and keeping later ones.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  std::fseek(f, 8, SEEK_SET);
  std::fputc(0xff, f);
  std::fclose(f);
  const auto count =
      ReplayWal(path, [](const Bytes&) { return Status::OK(); });
  ASSERT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kDataLoss);
}

TEST_F(StorageFixture, WalDecodeFailurePropagatesFromCallback) {
  const std::string path = Path("wal.log");
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.Append({1, 1, 1}, true).ok());
    ASSERT_TRUE(writer.Append({2, 2, 2}, true).ok());
  }
  // A CRC-clean record the application cannot decode is corruption too;
  // the callback's error must abort the replay.
  const auto count = ReplayWal(path, [](const Bytes& r) {
    if (r[0] == 2) return Status::DataLoss("undecodable record");
    return Status::OK();
  });
  ASSERT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kDataLoss);
}

// --- SSTable ---

TEST_F(StorageFixture, SstableBuildAndGet) {
  SstableBuilder builder;
  for (int i = 0; i < 100; ++i) {
    builder.Add(StrFormat("key%03d", i), EntryType::kPut,
                "value" + std::to_string(i));
  }
  builder.Add("zzz", EntryType::kDelete, "");
  ASSERT_TRUE(builder.Finish(Path("t.sst")).ok());

  const auto table = Sstable::Open(Path("t.sst"));
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_entries(), 101u);
  EXPECT_EQ(table->smallest_key(), "key000");
  EXPECT_EQ(table->largest_key(), "zzz");

  for (int i = 0; i < 100; ++i) {
    const auto entry = table->Get(StrFormat("key%03d", i));
    ASSERT_TRUE(entry.has_value()) << i;
    EXPECT_EQ(entry->value, "value" + std::to_string(i));
  }
  const auto tombstone = table->Get("zzz");
  ASSERT_TRUE(tombstone.has_value());
  EXPECT_EQ(tombstone->type, EntryType::kDelete);
  EXPECT_FALSE(table->Get("missing").has_value());
  EXPECT_FALSE(table->Get("key0005").has_value());
  EXPECT_FALSE(table->Get("aaa").has_value());  // Below smallest.
}

TEST_F(StorageFixture, SstableForEachIsSorted) {
  SstableBuilder builder;
  for (int i = 0; i < 50; ++i) {
    builder.Add(StrFormat("k%02d", i), EntryType::kPut, "v");
  }
  ASSERT_TRUE(builder.Finish(Path("t.sst")).ok());
  const auto table = Sstable::Open(Path("t.sst"));
  ASSERT_TRUE(table.ok());
  std::string last;
  size_t count = 0;
  table->ForEach([&](const TableEntry& entry) {
    EXPECT_GT(entry.key, last);
    last = entry.key;
    ++count;
  });
  EXPECT_EQ(count, 50u);
}

TEST_F(StorageFixture, SstableCorruptionDetected) {
  SstableBuilder builder;
  builder.Add("a", EntryType::kPut, "1");
  ASSERT_TRUE(builder.Finish(Path("t.sst")).ok());
  // Flip a data byte.
  std::FILE* f = std::fopen(Path("t.sst").c_str(), "r+b");
  std::fputc(0x7f, f);
  std::fclose(f);
  EXPECT_FALSE(Sstable::Open(Path("t.sst")).ok());
}

TEST_F(StorageFixture, SstableMissingFile) {
  EXPECT_EQ(Sstable::Open(Path("none.sst")).status().code(),
            StatusCode::kNotFound);
}

// --- Db ---

TEST_F(StorageFixture, DbPutGetDelete) {
  auto db = Db::Open(Path("db"));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Put("alpha", "1").ok());
  ASSERT_TRUE((*db)->Put("beta", "2").ok());
  EXPECT_EQ(*(*db)->Get("alpha"), "1");
  ASSERT_TRUE((*db)->Put("alpha", "updated").ok());
  EXPECT_EQ(*(*db)->Get("alpha"), "updated");
  ASSERT_TRUE((*db)->Delete("alpha").ok());
  EXPECT_EQ((*db)->Get("alpha").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(*(*db)->Get("beta"), "2");
}

TEST_F(StorageFixture, DbGetAcrossFlush) {
  auto db = Db::Open(Path("db"));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Put("k", "from-sstable").ok());
  ASSERT_TRUE((*db)->Flush().ok());
  EXPECT_EQ((*db)->memtable_entries(), 0u);
  EXPECT_EQ((*db)->num_sstables(), 1u);
  EXPECT_EQ(*(*db)->Get("k"), "from-sstable");
  // Newer memtable value shadows the table.
  ASSERT_TRUE((*db)->Put("k", "fresh").ok());
  EXPECT_EQ(*(*db)->Get("k"), "fresh");
}

TEST_F(StorageFixture, DbDeleteShadowsOlderTables) {
  auto db = Db::Open(Path("db"));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Put("k", "old").ok());
  ASSERT_TRUE((*db)->Flush().ok());
  ASSERT_TRUE((*db)->Delete("k").ok());
  ASSERT_TRUE((*db)->Flush().ok());
  EXPECT_EQ((*db)->num_sstables(), 2u);
  // The tombstone in the newer table must hide the older value.
  EXPECT_EQ((*db)->Get("k").status().code(), StatusCode::kNotFound);
}

TEST_F(StorageFixture, DbRecoversFromWal) {
  {
    auto db = Db::Open(Path("db"));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Put("persist", "me").ok());
    ASSERT_TRUE((*db)->Put("and", "me too").ok());
    // No flush: data lives only in WAL + memtable. Destructor closes files.
  }
  auto db = Db::Open(Path("db"));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->wal_records_replayed(), 2u);
  EXPECT_EQ(*(*db)->Get("persist"), "me");
  EXPECT_EQ(*(*db)->Get("and"), "me too");
}

TEST_F(StorageFixture, DbRecoversManifestAndTables) {
  {
    auto db = Db::Open(Path("db"));
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          (*db)->Put("key" + std::to_string(i), std::to_string(i)).ok());
    }
    ASSERT_TRUE((*db)->Flush().ok());
    ASSERT_TRUE((*db)->Put("after-flush", "wal-only").ok());
  }
  auto db = Db::Open(Path("db"));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->num_sstables(), 1u);
  EXPECT_EQ(*(*db)->Get("key42"), "42");
  EXPECT_EQ(*(*db)->Get("after-flush"), "wal-only");
}

TEST_F(StorageFixture, DbCompactionMergesAndDropsTombstones) {
  DbOptions options;
  options.compaction_trigger = 100;  // Manual compaction only.
  auto db = Db::Open(Path("db"), options);
  ASSERT_TRUE(db.ok());
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*db)
                      ->Put("key" + std::to_string(i),
                            StrFormat("round%d", round))
                      .ok());
    }
    ASSERT_TRUE((*db)->Delete("key0").ok());
    ASSERT_TRUE((*db)->Flush().ok());
  }
  EXPECT_EQ((*db)->num_sstables(), 4u);
  ASSERT_TRUE((*db)->CompactAll().ok());
  EXPECT_EQ((*db)->num_sstables(), 1u);
  EXPECT_EQ((*db)->Get("key0").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(*(*db)->Get("key7"), "round3");  // Newest round wins.
}

TEST_F(StorageFixture, DbAutoFlushAndCompact) {
  DbOptions options;
  options.memtable_max_bytes = 2048;
  options.compaction_trigger = 3;
  auto db = Db::Open(Path("db"), options);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        (*db)->Put(StrFormat("key%04d", i), std::string(50, 'x')).ok());
  }
  // Flush + compaction must have kicked in automatically.
  EXPECT_GT((*db)->stats().flushes, 0u);
  EXPECT_GT((*db)->stats().compactions, 0u);
  EXPECT_LT((*db)->num_sstables(), 3u);
  EXPECT_EQ(*(*db)->Get("key0005"), std::string(50, 'x'));
  EXPECT_EQ(*(*db)->Get("key0499"), std::string(50, 'x'));
}

TEST_F(StorageFixture, DbForEachMergedSorted) {
  auto db = Db::Open(Path("db"));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Put("c", "3").ok());
  ASSERT_TRUE((*db)->Put("a", "1").ok());
  ASSERT_TRUE((*db)->Flush().ok());
  ASSERT_TRUE((*db)->Put("b", "2").ok());
  ASSERT_TRUE((*db)->Delete("c").ok());
  std::vector<std::string> keys;
  (*db)->ForEach([&](const std::string& key, const std::string&) {
    keys.push_back(key);
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b"}));
}

TEST_F(StorageFixture, DbRandomizedModelCheck) {
  // Random puts/deletes/flushes/compactions against a std::map model, with
  // a reopen at the end.
  DbOptions options;
  options.memtable_max_bytes = 4096;
  options.compaction_trigger = 4;
  std::map<std::string, std::string> model;
  Rng rng(2024);
  {
    auto db = Db::Open(Path("db"), options);
    ASSERT_TRUE(db.ok());
    for (int op = 0; op < 3000; ++op) {
      const std::string key = StrFormat(
          "key%03llu", static_cast<unsigned long long>(rng.NextUint64(200)));
      switch (rng.NextUint64(10)) {
        case 0:  // Delete.
          ASSERT_TRUE((*db)->Delete(key).ok());
          model.erase(key);
          break;
        case 1:  // Occasional explicit flush.
          ASSERT_TRUE((*db)->Flush().ok());
          break;
        default: {
          const std::string value = StrFormat(
              "v%llu", static_cast<unsigned long long>(rng.Next()));
          ASSERT_TRUE((*db)->Put(key, value).ok());
          model[key] = value;
        }
      }
      if (op % 500 == 499) {
        // Full audit against the model.
        for (const auto& [k, v] : model) {
          const auto got = (*db)->Get(k);
          ASSERT_TRUE(got.ok()) << k;
          ASSERT_EQ(*got, v) << k;
        }
      }
    }
  }
  // Reopen: everything must survive.
  auto db = Db::Open(Path("db"), options);
  ASSERT_TRUE(db.ok());
  size_t live = 0;
  (*db)->ForEach([&](const std::string& key, const std::string& value) {
    const auto it = model.find(key);
    ASSERT_NE(it, model.end()) << key;
    EXPECT_EQ(it->second, value);
    ++live;
  });
  EXPECT_EQ(live, model.size());
}

}  // namespace
}  // namespace fabricpp::storage

namespace fabricpp::storage {
namespace {

TEST_F(StorageFixture, DbIteratorMatchesForEach) {
  DbOptions options;
  options.memtable_max_bytes = 2048;
  auto db = Db::Open(Path("db"), options);
  ASSERT_TRUE(db.ok());
  Rng rng(404);
  for (int i = 0; i < 800; ++i) {
    const std::string key = StrFormat(
        "k%03llu", static_cast<unsigned long long>(rng.NextUint64(300)));
    if (rng.NextBool(0.15)) {
      ASSERT_TRUE((*db)->Delete(key).ok());
    } else {
      ASSERT_TRUE((*db)->Put(key, std::to_string(i)).ok());
    }
  }
  std::vector<std::pair<std::string, std::string>> via_foreach;
  (*db)->ForEach([&](const std::string& k, const std::string& v) {
    via_foreach.emplace_back(k, v);
  });
  std::vector<std::pair<std::string, std::string>> via_iterator;
  for (auto it = (*db)->NewIterator(); it.Valid(); it.Next()) {
    via_iterator.emplace_back(it.key(), it.value());
  }
  EXPECT_EQ(via_iterator, via_foreach);
  EXPECT_GT((*db)->num_sstables(), 0u);  // The merge spans real tables.
}

TEST_F(StorageFixture, DbIteratorNewestSourceWins) {
  auto db = Db::Open(Path("db"));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Put("k", "old").ok());
  ASSERT_TRUE((*db)->Flush().ok());
  ASSERT_TRUE((*db)->Put("k", "mid").ok());
  ASSERT_TRUE((*db)->Flush().ok());
  ASSERT_TRUE((*db)->Put("k", "new").ok());  // Memtable.
  auto it = (*db)->NewIterator();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "k");
  EXPECT_EQ(it.value(), "new");
  it.Next();
  EXPECT_FALSE(it.Valid());
}

TEST_F(StorageFixture, DbIteratorSkipsTombstonesAcrossSources) {
  auto db = Db::Open(Path("db"));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Put("a", "1").ok());
  ASSERT_TRUE((*db)->Put("b", "2").ok());
  ASSERT_TRUE((*db)->Flush().ok());
  ASSERT_TRUE((*db)->Delete("a").ok());  // Tombstone in memtable.
  std::vector<std::string> keys;
  for (auto it = (*db)->NewIterator(); it.Valid(); it.Next()) {
    keys.push_back(it.key());
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"b"}));
}

TEST_F(StorageFixture, DbIteratorEmptyDb) {
  auto db = Db::Open(Path("db"));
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE((*db)->NewIterator().Valid());
}

TEST_F(StorageFixture, SstableIteratorWalksAll) {
  SstableBuilder builder;
  for (int i = 0; i < 40; ++i) {
    builder.Add(StrFormat("k%02d", i), EntryType::kPut, std::to_string(i));
  }
  ASSERT_TRUE(builder.Finish(Path("t.sst")).ok());
  const auto table = Sstable::Open(Path("t.sst"));
  ASSERT_TRUE(table.ok());
  int count = 0;
  for (auto it = table->NewIterator(); it.Valid(); it.Next()) {
    EXPECT_EQ(it.entry().value, std::to_string(count));
    ++count;
  }
  EXPECT_EQ(count, 40);
}

TEST_F(StorageFixture, CompactAllStillCollapsesToOneTable) {
  auto db = Db::Open(Path("db"));
  ASSERT_TRUE(db.ok());
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*db)->Put(StrFormat("key%03d", i),
                             StrFormat("r%d", round)).ok());
    }
    ASSERT_TRUE((*db)->Flush().ok());
  }
  ASSERT_TRUE((*db)->CompactAll().ok());
  EXPECT_EQ((*db)->num_sstables(), 1u);
  EXPECT_EQ(*(*db)->Get("key025"), "r3");
}

// --- Orphaned-table GC ---

TEST_F(StorageFixture, OrphanedSstablesRemovedAtOpen) {
  DbOptions options;
  {
    auto db = Db::Open(Path("db"), options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Put("a", "1").ok());
    ASSERT_TRUE((*db)->Flush().ok());
  }
  // Simulate the crash window between writing a compaction/flush output and
  // committing the manifest: stray numbered .sst files the manifest never
  // adopted.
  const fs::path orphan1 = fs::path(Path("db")) / "000099.sst";
  const fs::path orphan2 = fs::path(Path("db")) / "000100.sst";
  { std::ofstream(orphan1).write("garbage", 7); }
  { std::ofstream(orphan2).write("junk", 4); }
  auto db = Db::Open(Path("db"), options);
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE(fs::exists(orphan1));
  EXPECT_FALSE(fs::exists(orphan2));
  EXPECT_EQ((*db)->stats().orphaned_tables_removed, 2u);
  EXPECT_EQ(*(*db)->Get("a"), "1");  // live data untouched
}

TEST_F(StorageFixture, OrphanGcSparesLiveAndForeignFiles) {
  {
    auto db = Db::Open(Path("db"));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Put("a", "1").ok());
    ASSERT_TRUE((*db)->Flush().ok());
  }
  const fs::path foreign = fs::path(Path("db")) / "notes.txt";
  { std::ofstream(foreign) << "keep me"; }
  auto db = Db::Open(Path("db"));
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(fs::exists(foreign));
  EXPECT_EQ((*db)->stats().orphaned_tables_removed, 0u);
  EXPECT_EQ(*(*db)->Get("a"), "1");
}

}  // namespace
}  // namespace fabricpp::storage
