#ifndef FABRICPP_STORAGE_DB_H_
#define FABRICPP_STORAGE_DB_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/block_cache.h"
#include "storage/skiplist.h"
#include "storage/sstable.h"
#include "storage/wal.h"
#include "storage/write_batch.h"

namespace fabricpp::storage {

/// Tuning knobs of the storage engine.
struct DbOptions {
  /// Memtable size that triggers a flush to an L0 SSTable.
  size_t memtable_max_bytes = 4 << 20;
  uint32_t bloom_bits_per_key = 10;
  /// Number of L0 flush files that triggers an L0 -> L1 merge (L0 files
  /// overlap each other, so every L0 file joins the merge).
  size_t compaction_trigger = 8;
  /// Target total data bytes of L1; level n may hold
  /// level_base_bytes * level_size_ratio^(n-1) before it spills into n+1.
  size_t level_base_bytes = 8 << 20;
  size_t level_size_ratio = 8;
  /// Compaction outputs are chunked into files of roughly this many data
  /// bytes, so one merge never rewrites a whole level.
  size_t target_file_bytes = 2 << 20;
  /// WAL durability (see WalSyncMode): when to fsync appends. kBlock is
  /// the group-commit sweet spot — one fsync per ApplyBatch, none for
  /// individual writes.
  WalSyncMode sync_mode = WalSyncMode::kNone;
  /// Capacity of the sstable data-block cache (sharded LRU); 0 disables
  /// caching and every point read goes to disk.
  size_t block_cache_bytes = 4 << 20;
};

/// Lifetime counters of one Db instance (not persisted).
struct DbStats {
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  /// Bytes written by compaction outputs (write amplification numerator).
  uint64_t compaction_bytes_written = 0;
  /// Unreferenced .sst files reclaimed at Open (crash between a table write
  /// and the manifest update, or between the manifest update and the old
  /// file removes).
  uint64_t orphaned_tables_removed = 0;
};

/// A small LSM-tree key-value store — the persistent substrate standing in
/// for the LevelDB instance behind Fabric's state database (paper §6.1:
/// "Fabric is set up to use LevelDB as the current state database").
///
/// Architecture: WAL -> memtable (skip list) -> leveled SSTables with
/// sparse indexes, Bloom filters and a shared block cache. L0 holds raw
/// memtable flushes (files may overlap); levels >= 1 are sorted runs of
/// non-overlapping files. Compaction merges all of L0 (or one file of a
/// deeper level) into the overlapping files one level down, triggered by
/// L0 file count and per-level size budgets. Writes are logged before
/// being applied; recovery loads the manifest and replays the WAL tail.
/// No node links this engine (DESIGN.md §14).
class Db {
 public:
  /// Opens (or creates) a database in `dir`, replaying any WAL left behind.
  /// Unreferenced table files from crashed flush/compaction windows are
  /// garbage-collected.
  static Result<std::unique_ptr<Db>> Open(const std::string& dir,
                                          DbOptions options = {});

  ~Db();
  Db(const Db&) = delete;
  Db& operator=(const Db&) = delete;

  Status Put(std::string_view key, std::string_view value);
  Status Delete(std::string_view key);

  /// Applies all writes of `batch` atomically: the whole batch is one
  /// framed WAL record — a single Append, at most one fsync (group
  /// commit) — and recovery replays it all-or-nothing, so a crash can
  /// never surface a prefix of the batch. Entries land in the memtable in
  /// batch order (later writes to a key win).
  Status ApplyBatch(const WriteBatch& batch);

  /// Point lookup: memtable, then L0 newest-to-oldest, then one candidate
  /// file per deeper level (levels >= 1 are non-overlapping).
  Result<std::string> Get(std::string_view key) const;

  /// Forces the memtable into an L0 SSTable (also rotates the WAL).
  Status Flush();

  /// Merges every live SSTable into one L1 run, dropping shadowed values
  /// and tombstones. Kept for tests/tools; the online path compacts
  /// incrementally (MaybeFlushAndCompact).
  Status CompactAll();

  /// Visits all live (non-deleted) entries in ascending key order.
  void ForEach(const std::function<void(const std::string&,
                                        const std::string&)>& fn) const;

  /// Streaming merged iterator over all live entries, ascending by key —
  /// a lazy k-way merge of the memtable and every SSTable, newest source
  /// winning per key, tombstones skipped. O(log sources) per step; unlike
  /// ForEach it does not materialize the key space.
  class Iterator {
   public:
    bool Valid() const { return valid_; }
    const std::string& key() const { return key_; }
    const std::string& value() const { return value_; }
    void Next();

   private:
    friend class Db;
    struct Source;
    explicit Iterator(const Db* db);
    void Advance();

    std::vector<std::shared_ptr<Source>> sources_;
    bool valid_ = false;
    std::string key_;
    std::string value_;
  };
  /// The iterator is a point-in-time view; mutating the Db while iterating
  /// is undefined.
  Iterator NewIterator() const { return Iterator(this); }

  // --- Introspection (tests, benches) ---
  size_t num_sstables() const;
  size_t num_levels() const { return levels_.size(); }
  size_t level_num_sstables(size_t level) const {
    return level < levels_.size() ? levels_[level].size() : 0;
  }
  uint64_t level_bytes(size_t level) const;
  size_t memtable_entries() const { return memtable_->size(); }
  size_t memtable_bytes() const { return memtable_bytes_; }
  uint64_t wal_records_replayed() const { return wal_records_replayed_; }
  /// Lifetime WAL traffic of this Db instance — what group commit is
  /// measured by: a block-sized ApplyBatch bumps each counter once where
  /// the per-key path bumps them O(keys) times.
  uint64_t wal_appends() const { return wal_appends_; }
  uint64_t wal_syncs() const { return wal_syncs_; }
  const DbStats& stats() const { return stats_; }
  const DbOptions& options() const { return options_; }
  uint64_t block_cache_hits() const { return cache_ ? cache_->hits() : 0; }
  uint64_t block_cache_misses() const {
    return cache_ ? cache_->misses() : 0;
  }
  const std::shared_ptr<BlockCache>& block_cache() const { return cache_; }

 private:
  struct MemEntry {
    EntryType type = EntryType::kPut;
    std::string value;
  };
  /// One live table: its file number and the open Sstable.
  struct LevelFile {
    uint64_t number = 0;
    Sstable table;
  };

  explicit Db(std::string dir, DbOptions options);

  Status Write(EntryType type, std::string_view key, std::string_view value);
  Status AppendToWal(const Bytes& record, bool sync);
  void InsertMem(std::string_view key, EntryType type, std::string value);
  Status MaybeFlushAndCompact();
  Status MaybeCompact();
  /// Merges level's input set (all of L0, or the oldest-numbered file of a
  /// deeper level) with the overlapping files of level+1.
  Status CompactLevel(size_t level);
  /// K-way merge of `inputs` (oldest first; later index wins ties) into
  /// chunked output files appended to `outputs`.
  Status MergeTables(const std::vector<const Sstable*>& inputs,
                     bool drop_tombstones, size_t max_output_bytes,
                     std::vector<LevelFile>* outputs);
  /// True when any file of `levels_[level..]` overlaps [min_key, max_key] —
  /// then tombstones in a compaction ending above `level` must survive.
  bool AnyOverlapAtOrBelow(size_t level, const std::string& min_key,
                           const std::string& max_key) const;
  void EnsureLevel(size_t level);
  void DropEmptyDeepLevels();
  /// Loads MANIFEST; a missing one means a fresh database.
  Status LoadManifest();
  Status WriteManifest();
  /// Deletes .sst files in dir_ that no manifest entry references.
  void RemoveOrphanTables();
  std::string TableFileName(uint64_t number) const;
  std::string WalFileName() const;
  std::string ManifestFileName() const;

  std::string dir_;
  DbOptions options_;
  std::unique_ptr<SkipList<MemEntry>> memtable_;
  size_t memtable_bytes_ = 0;
  WalWriter wal_;
  std::shared_ptr<BlockCache> cache_;
  /// levels_[0]: L0 flush files, oldest first (newest shadows). levels_[n>=1]:
  /// sorted runs, files ordered by smallest_key, pairwise non-overlapping.
  std::vector<std::vector<LevelFile>> levels_;
  uint64_t next_file_number_ = 1;
  uint64_t wal_records_replayed_ = 0;
  uint64_t wal_appends_ = 0;
  uint64_t wal_syncs_ = 0;
  DbStats stats_;
};

}  // namespace fabricpp::storage

#endif  // FABRICPP_STORAGE_DB_H_
