// Crash-consistency tests for the storage engine's group-commit path: the
// WAL of a multi-batch log is truncated at EVERY byte boundary (and corrupted at
// every byte) and recovery must always yield an all-or-nothing prefix of
// the committed block batches — state writes and the height bookmark never
// diverge.
//
// CI runs this binary under ASan in addition to the plain matrix leg; keep
// the suite names matching "CrashConsistency" so the workflow's -R regex
// picks them up.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "storage/db.h"
#include "storage/write_batch.h"

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

// --- Db-level: a WAL holding two block batches, cut at every byte ---

class StorageCrashConsistencyTest : public CrashConsistencyFixture {};

TEST_F(StorageCrashConsistencyTest, WalTruncatedAtEveryByteIsAllOrNothing) {
  // Build the canonical WAL: two block-sized batches, each carrying its
  // state writes plus a height bookmark — the commit path's shape.
  storage::DbOptions options;
  options.sync_mode = storage::WalSyncMode::kBlock;
  const std::string wal = Path("db") + "/wal.log";
  {
    auto db = storage::Db::Open(Path("db"), options);
    ASSERT_TRUE(db.ok());
    storage::WriteBatch a;
    a.Put("a1", "va1");
    a.Put("a2", "va2");
    a.Put("a3", "va3");
    a.Put("height", "1");
    ASSERT_TRUE((*db)->ApplyBatch(a).ok());
    storage::WriteBatch b;
    b.Put("b1", "vb1");
    b.Delete("a2");
    b.Put("b2", "vb2");
    b.Put("height", "2");
    ASSERT_TRUE((*db)->ApplyBatch(b).ok());
    EXPECT_EQ((*db)->wal_appends(), 2u);
    EXPECT_EQ((*db)->wal_syncs(), 2u);
  }
  const std::vector<char> full = ReadFileBytes(wal);
  ASSERT_GT(full.size(), 16u);  // Two framed records at least.

  for (size_t cut = 0; cut <= full.size(); ++cut) {
    const std::string scratch = Path("cut" + std::to_string(cut));
    fs::create_directories(scratch);
    WriteFileBytes(scratch + "/wal.log", full, cut);
    auto db = storage::Db::Open(scratch, options);
    // A truncation is a legal crash artifact: recovery must succeed...
    ASSERT_TRUE(db.ok()) << "cut at byte " << cut << ": "
                         << db.status().ToString();
    // ...and must surface batch A and batch B all-or-nothing, in order.
    const bool a_applied = (*db)->Get("a1").ok();
    const bool b_applied = (*db)->Get("b1").ok();
    if (b_applied) {
      EXPECT_TRUE(a_applied) << "cut " << cut << ": B without A";
    }
    EXPECT_EQ((*db)->Get("a3").ok(), a_applied) << "cut " << cut;
    EXPECT_EQ((*db)->Get("b2").ok(), b_applied) << "cut " << cut;
    // a2: written by A, deleted by B.
    EXPECT_EQ((*db)->Get("a2").ok(), a_applied && !b_applied)
        << "cut " << cut;
    // The height bookmark rides inside each batch, so it can never diverge
    // from the applied state writes.
    const auto height = (*db)->Get("height");
    if (b_applied) {
      ASSERT_TRUE(height.ok());
      EXPECT_EQ(*height, "2") << "cut " << cut;
    } else if (a_applied) {
      ASSERT_TRUE(height.ok());
      EXPECT_EQ(*height, "1") << "cut " << cut;
    } else {
      EXPECT_FALSE(height.ok()) << "cut " << cut;
    }
    fs::remove_all(scratch);
  }
}

TEST_F(StorageCrashConsistencyTest, WalCorruptedAtEveryByteNeverTearsABatch) {
  storage::DbOptions options;
  options.sync_mode = storage::WalSyncMode::kBlock;
  const std::string wal = Path("db") + "/wal.log";
  {
    auto db = storage::Db::Open(Path("db"), options);
    ASSERT_TRUE(db.ok());
    storage::WriteBatch a;
    a.Put("a1", "va1");
    a.Put("a2", "va2");
    a.Put("height", "1");
    ASSERT_TRUE((*db)->ApplyBatch(a).ok());
    storage::WriteBatch b;
    b.Put("b1", "vb1");
    b.Put("height", "2");
    ASSERT_TRUE((*db)->ApplyBatch(b).ok());
  }
  const std::vector<char> full = ReadFileBytes(wal);

  for (size_t pos = 0; pos < full.size(); ++pos) {
    std::vector<char> corrupt = full;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x5a);
    const std::string scratch = Path("flip" + std::to_string(pos));
    fs::create_directories(scratch);
    WriteFileBytes(scratch + "/wal.log", corrupt, corrupt.size());
    auto db = storage::Db::Open(scratch, options);
    if (!db.ok()) {
      // Detected corruption: refusing to open is the safe outcome.
      EXPECT_EQ(db.status().code(), StatusCode::kDataLoss)
          << "flip at byte " << pos << ": " << db.status().ToString();
    } else {
      // Whatever recovered must still be an in-order batch prefix with the
      // height matching the applied state writes exactly.
      const bool a_applied = (*db)->Get("a1").ok();
      const bool b_applied = (*db)->Get("b1").ok();
      if (b_applied) {
        EXPECT_TRUE(a_applied) << "flip " << pos;
      }
      EXPECT_EQ((*db)->Get("a2").ok(), a_applied) << "flip " << pos;
      const auto height = (*db)->Get("height");
      if (b_applied) {
        ASSERT_TRUE(height.ok()) << "flip " << pos;
        EXPECT_EQ(*height, "2") << "flip " << pos;
      } else if (a_applied) {
        ASSERT_TRUE(height.ok()) << "flip " << pos;
        EXPECT_EQ(*height, "1") << "flip " << pos;
      } else {
        EXPECT_FALSE(height.ok()) << "flip " << pos;
      }
    }
    fs::remove_all(scratch);
  }
}

}  // namespace
}  // namespace fabricpp
