#ifndef FABRICPP_STORAGE_DB_H_
#define FABRICPP_STORAGE_DB_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/skiplist.h"
#include "storage/sstable.h"
#include "storage/wal.h"

namespace fabricpp::storage {

/// Tuning knobs of the storage engine.
struct DbOptions {
  /// Memtable size that triggers a flush to an SSTable.
  size_t memtable_max_bytes = 4 << 20;
  /// Number of live SSTables that triggers a full merge compaction.
  size_t compaction_trigger = 8;
  /// fsync the WAL on every write (durability vs throughput).
  bool sync_writes = false;
};

/// Lifetime counters of one Db instance (not persisted).
struct DbStats {
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  /// Unreferenced .sst files reclaimed at Open (crash between a table write
  /// and the manifest update, or between the manifest update and the old
  /// file removes).
  uint64_t orphaned_tables_removed = 0;
};

/// A small LSM-tree key-value store — the persistent substrate standing in
/// for the LevelDB instance behind Fabric's state database (paper §6.1:
/// "Fabric is set up to use LevelDB as the current state database").
///
/// Architecture: WAL -> memtable (skip list) -> one flat list of immutable
/// SSTables with sparse indexes, newer tables shadowing older ones ->
/// full-merge compaction once `compaction_trigger` tables are live. Writes
/// are logged before being applied; recovery loads the manifest and
/// replays the WAL tail. No node links this engine (DESIGN.md §14).
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

  /// Point lookup: memtable first, then SSTables newest-to-oldest.
  Result<std::string> Get(std::string_view key) const;

  /// Forces the memtable into an SSTable (also rotates the WAL).
  Status Flush();

  /// Merges every live SSTable into one, dropping shadowed values and
  /// tombstones.
  Status CompactAll();

  /// Visits all live (non-deleted) entries in ascending key order.
  void ForEach(const std::function<void(const std::string&,
                                        const std::string&)>& fn) const;

  /// Streaming merged iterator over all live entries, ascending by key —
  /// a lazy k-way merge of the memtable and every SSTable, newest source
  /// winning per key, tombstones skipped. O(sources) per step; unlike
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
  size_t num_sstables() const { return tables_.size(); }
  size_t memtable_entries() const { return memtable_->size(); }
  size_t memtable_bytes() const { return memtable_bytes_; }
  uint64_t wal_records_replayed() const { return wal_records_replayed_; }
  const DbStats& stats() const { return stats_; }

 private:
  struct MemEntry {
    EntryType type = EntryType::kPut;
    std::string value;
  };
  /// One live table: its file number and the open Sstable.
  struct TableFile {
    uint64_t number = 0;
    Sstable table;
  };

  explicit Db(std::string dir, DbOptions options);

  Status Write(EntryType type, std::string_view key, std::string_view value);
  void InsertMem(std::string_view key, EntryType type, std::string value);
  Status MaybeFlushAndCompact();
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
  std::vector<TableFile> tables_;  // Oldest first; newer shadows older.
  uint64_t next_file_number_ = 1;
  uint64_t wal_records_replayed_ = 0;
  DbStats stats_;
};

}  // namespace fabricpp::storage

#endif  // FABRICPP_STORAGE_DB_H_
