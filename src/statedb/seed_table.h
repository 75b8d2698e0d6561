#ifndef FABRICPP_STATEDB_SEED_TABLE_H_
#define FABRICPP_STATEDB_SEED_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace fabricpp::statedb {

/// The seeded initial state under a StateDb (DESIGN.md §17), stored as one
/// compact table instead of a node per key:
/// - one byte arena holding every key followed by its value;
/// - a 16-byte record per entry (arena offset, 32-bit key and value sizes);
/// - an open-addressed index of 32-bit entry numbers, at most half full.
///
/// Every seeded entry is at proto::kNilVersion, so no version is stored.
/// Put appends while seeding; a table is read-only once shared. Const
/// methods only read the three vectors, so any number of threads may call
/// them concurrently.
class SeedTable {
 public:
  /// Sets `key` to `value`. A repeated key keeps its entry number and takes
  /// the new value (appended to the arena; the old bytes stay unused).
  /// Returns true if the key is new.
  bool Put(std::string_view key, std::string_view value);

  /// Sizes the table once for `entries` entries in all whose keys and
  /// values take `arena_bytes` bytes in all, so Puts within that neither
  /// reallocate nor rehash: seeding then peaks at the live table instead of
  /// holding an old and a new buffer at once. A Put past the reservation
  /// grows the table as without one, so a low hint costs only time; arena
  /// pages reserved but never written are never resident.
  void Reserve(size_t entries, size_t arena_bytes);

  /// The entry number of `key`, or nullopt if it was never seeded.
  std::optional<uint32_t> Find(std::string_view key) const;
  bool Contains(std::string_view key) const { return Find(key).has_value(); }

  size_t size() const { return entries_.size(); }
  /// Bytes of keys and values appended so far, a repeated key's too.
  size_t arena_bytes() const { return arena_.size(); }
  /// Room allocated so far; none of the three moves while Puts fit a
  /// Reserve.
  size_t entry_capacity() const { return entries_.capacity(); }
  size_t arena_capacity() const { return arena_.capacity(); }
  size_t index_slots() const { return index_.size(); }
  std::string_view key(uint32_t entry) const {
    const Entry& e = entries_[entry];
    return {arena_.data() + e.offset, e.key_size};
  }
  std::string_view value(uint32_t entry) const {
    const Entry& e = entries_[entry];
    return {arena_.data() + e.offset + e.key_size, e.value_size};
  }

 private:
  struct Entry {
    uint64_t offset;  ///< Of the key in arena_; the value follows it.
    uint32_t key_size;
    uint32_t value_size;
  };
  static constexpr uint32_t kEmpty = UINT32_MAX;

  /// The index slot holding `key`'s entry number, or the empty slot where
  /// it would go.
  size_t SlotOf(std::string_view key) const;
  /// Appends `key` then `value` to the arena; returns the key's offset.
  uint64_t Append(std::string_view key, std::string_view value);
  /// The index size for `entries` entries: the current size (16 for an
  /// empty table), doubled until the index is at most half full.
  size_t IndexCapacityFor(size_t entries) const;
  void Rehash(size_t capacity);

  std::vector<char> arena_;
  std::vector<Entry> entries_;
  /// Entry numbers, kEmpty for a free slot; the size is a power of two.
  std::vector<uint32_t> index_;
};

}  // namespace fabricpp::statedb

#endif  // FABRICPP_STATEDB_SEED_TABLE_H_
