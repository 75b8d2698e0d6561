// Crash-consistency tests for the storage engine's WAL: a log of single
// Put/Delete records is truncated at EVERY byte boundary (and corrupted at
// every byte), and recovery must always yield the state after an in-order
// prefix of the records, or refuse to open with kDataLoss.
//
// The sanitizer leg of CI runs every ctest, so these sweeps also run under
// ASan/UBSan there.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "storage/db.h"

namespace fabricpp {
namespace {

namespace fs = std::filesystem;

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<char>& bytes,
                    size_t count) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(count));
}

/// Fresh scratch directory per test.
class CrashConsistencyFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("fabricpp_crash_" +
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

// --- Db-level: a WAL of single-write records, cut at every byte ---

using State = std::map<std::string, std::string>;

struct Record {
  bool put = true;
  std::string key;
  std::string value;
};

// Every record changes the state, so each prefix has a distinct state.
const std::vector<Record>& Records() {
  static const std::vector<Record> records = {
      {true, "a1", "va1"},   {true, "a2", "va2"},  {true, "height", "1"},
      {true, "b1", "vb1"},   {false, "a2", ""},    {true, "b2", "vb2"},
      {true, "height", "2"},
  };
  return records;
}

/// prefixes[k] is the state after the first k records.
std::vector<State> PrefixStates() {
  std::vector<State> prefixes(1);
  for (const Record& record : Records()) {
    State next = prefixes.back();
    if (record.put) {
      next[record.key] = record.value;
    } else {
      next.erase(record.key);
    }
    prefixes.push_back(std::move(next));
  }
  return prefixes;
}

State ReadState(const storage::Db& db) {
  State state;
  db.ForEach([&](const std::string& key, const std::string& value) {
    state[key] = value;
  });
  return state;
}

/// Length of the record prefix whose state `state` is, or -1 if none.
int PrefixLength(const std::vector<State>& prefixes, const State& state) {
  for (size_t k = 0; k < prefixes.size(); ++k) {
    if (prefixes[k] == state) return static_cast<int>(k);
  }
  return -1;
}

class StorageCrashConsistencyTest : public CrashConsistencyFixture {
 protected:
  /// Writes Records() one call each, every append synced, and returns the
  /// resulting WAL bytes.
  std::vector<char> WriteLog() {
    {
      auto db = storage::Db::Open(Path("db"), Options());
      EXPECT_TRUE(db.ok());
      if (!db.ok()) return {};
      for (const Record& record : Records()) {
        const Status written = record.put
                                   ? (*db)->Put(record.key, record.value)
                                   : (*db)->Delete(record.key);
        EXPECT_TRUE(written.ok()) << written.ToString();
      }
    }
    return ReadFileBytes(Path("db") + "/wal.log");
  }

  static storage::DbOptions Options() {
    storage::DbOptions options;
    options.sync_writes = true;
    return options;
  }
};

TEST_F(StorageCrashConsistencyTest, WalTruncatedAtEveryByteIsAllOrNothing) {
  const std::vector<char> full = WriteLog();
  ASSERT_GT(full.size(), 8 * Records().size());
  const std::vector<State> prefixes = PrefixStates();

  // End offset of each framed record (8-byte header + little-endian
  // payload length at header bytes 4..7).
  std::vector<size_t> ends;
  for (size_t offset = 0; offset + 8 <= full.size();) {
    uint32_t length = 0;
    for (int i = 0; i < 4; ++i) {
      const auto byte = static_cast<uint8_t>(full[offset + 4 + i]);
      length |= static_cast<uint32_t>(byte) << (8 * i);
    }
    offset += 8 + length;
    ends.push_back(offset);
  }
  ASSERT_EQ(ends.size(), Records().size());
  ASSERT_EQ(ends.back(), full.size());

  for (size_t cut = 0; cut <= full.size(); ++cut) {
    const std::string scratch = Path("cut" + std::to_string(cut));
    fs::create_directories(scratch);
    WriteFileBytes(scratch + "/wal.log", full, cut);
    auto db = storage::Db::Open(scratch, Options());
    // A truncation is a legal crash artifact: recovery must succeed...
    ASSERT_TRUE(db.ok()) << "cut at byte " << cut << ": "
                         << db.status().ToString();
    // ...and must keep exactly the records that lie whole before the cut.
    size_t whole = 0;
    while (whole < ends.size() && ends[whole] <= cut) ++whole;
    EXPECT_EQ((*db)->wal_records_replayed(), whole) << "cut " << cut;
    EXPECT_EQ(PrefixLength(prefixes, ReadState(**db)),
              static_cast<int>(whole))
        << "cut " << cut;
    fs::remove_all(scratch);
  }
}

TEST_F(StorageCrashConsistencyTest, WalCorruptedAtEveryByteNeverTearsABatch) {
  // Each single-write record is the unit that must never tear: a flipped
  // byte may lose the records from it on, never expose a later one alone.
  const std::vector<char> full = WriteLog();
  ASSERT_FALSE(full.empty());
  const std::vector<State> prefixes = PrefixStates();

  for (size_t pos = 0; pos < full.size(); ++pos) {
    std::vector<char> corrupt = full;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x5a);
    const std::string scratch = Path("flip" + std::to_string(pos));
    fs::create_directories(scratch);
    WriteFileBytes(scratch + "/wal.log", corrupt, corrupt.size());
    auto db = storage::Db::Open(scratch, Options());
    if (!db.ok()) {
      // Detected corruption: refusing to open is the safe outcome.
      EXPECT_EQ(db.status().code(), StatusCode::kDataLoss)
          << "flip at byte " << pos << ": " << db.status().ToString();
    } else {
      // Whatever recovered must be the state after an in-order prefix.
      const int k = PrefixLength(prefixes, ReadState(**db));
      EXPECT_GE(k, 0) << "flip " << pos;
      EXPECT_EQ(static_cast<uint64_t>(k), (*db)->wal_records_replayed())
          << "flip " << pos;
    }
    fs::remove_all(scratch);
  }
}

}  // namespace
}  // namespace fabricpp
