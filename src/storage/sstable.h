#ifndef FABRICPP_STORAGE_SSTABLE_H_
#define FABRICPP_STORAGE_SSTABLE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/status.h"

namespace fabricpp::storage {

/// Kind of a stored entry. Tombstones persist until compaction so that
/// older tables' values stay shadowed.
enum class EntryType : uint8_t { kPut = 0, kDelete = 1 };

/// One key-value entry as stored in an SSTable.
struct TableEntry {
  std::string key;
  EntryType type = EntryType::kPut;
  std::string value;
};

/// Writes a sorted run of entries into an immutable table file.
///
/// File layout:
///   [entries...] [sparse index] [footer]
/// The sparse index holds every 16th key with its file offset; the footer
/// carries the index offset, the entry count, a CRC and a magic number.
class SstableBuilder {
 public:
  /// Adds an entry; keys must arrive in strictly increasing order.
  void Add(std::string_view key, EntryType type, std::string_view value);

  /// Writes the table to `path`. The builder is spent afterwards.
  Status Finish(const std::string& path);

  size_t num_entries() const { return entries_.size(); }

 private:
  std::vector<TableEntry> entries_;
};

/// An open, immutable table.
///
/// Open() reads and CRC-validates the whole file once, then retains only
/// the sparse index and the key bounds in memory; entry data is re-read
/// from disk on demand in *blocks* — the spans between two consecutive
/// sparse-index points (~16 entries).
class Sstable {
 public:
  /// Opens and validates the footer/CRC.
  static Result<Sstable> Open(const std::string& path);

  /// Point lookup. Returns nullopt when the key is absent from this table
  /// (a found tombstone IS returned — callers must stop searching older
  /// tables and report not-found).
  std::optional<TableEntry> Get(std::string_view key) const;

  /// In-order scan of all entries (compaction, iterators).
  void ForEach(const std::function<void(const TableEntry&)>& fn) const;

  /// Positional in-order iterator over the table's entries, reading one
  /// block at a time. The table must outlive the iterator.
  class Iterator {
   public:
    explicit Iterator(const Sstable* table) : table_(table) { Advance(); }
    bool Valid() const { return valid_; }
    const TableEntry& entry() const { return entry_; }
    void Next() { Advance(); }

   private:
    void Advance();
    const Sstable* table_;
    size_t block_ = 0;  // Next block to load.
    Bytes data_;        // Current block's bytes.
    size_t pos_ = 0;    // Decode position within data_.
    bool valid_ = false;
    TableEntry entry_;
  };
  Iterator NewIterator() const { return Iterator(this); }

  size_t num_entries() const { return num_entries_; }
  const std::string& path() const { return path_; }
  const std::string& smallest_key() const { return smallest_key_; }
  const std::string& largest_key() const { return largest_key_; }

 private:
  /// Shared pread-able file handle; Sstable is copy/movable, iterators and
  /// copies share the descriptor (pread carries its own offset, so reads
  /// are thread-safe).
  class File;

  friend class Iterator;

  Sstable() = default;

  size_t num_blocks() const { return index_.size(); }
  uint64_t BlockOffset(size_t block) const { return index_[block].second; }
  uint64_t BlockEnd(size_t block) const {
    return block + 1 < index_.size() ? index_[block + 1].second
                                     : index_offset_;
  }
  Result<Bytes> ReadBlock(size_t block) const;
  static Result<TableEntry> DecodeEntry(ByteReader* reader);

  std::string path_;
  std::shared_ptr<File> file_;
  uint64_t index_offset_ = 0;
  size_t num_entries_ = 0;
  /// Sparse index: (key, entry offset), ascending — one entry per block.
  std::vector<std::pair<std::string, uint64_t>> index_;
  std::string smallest_key_;
  std::string largest_key_;
};

}  // namespace fabricpp::storage

#endif  // FABRICPP_STORAGE_SSTABLE_H_
