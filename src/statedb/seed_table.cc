#include "statedb/seed_table.h"

#include <cstdlib>
#include <functional>

#include "common/logging.h"

namespace fabricpp::statedb {

size_t SeedTable::SlotOf(std::string_view key) const {
  const size_t mask = index_.size() - 1;
  size_t slot = std::hash<std::string_view>{}(key) & mask;
  while (index_[slot] != kEmpty && this->key(index_[slot]) != key) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

std::optional<uint32_t> SeedTable::Find(std::string_view key) const {
  if (index_.empty()) return std::nullopt;
  const uint32_t entry = index_[SlotOf(key)];
  if (entry == kEmpty) return std::nullopt;
  return entry;
}

uint64_t SeedTable::Append(std::string_view key, std::string_view value) {
  if (key.size() > UINT32_MAX || value.size() > UINT32_MAX) {
    FABRICPP_LOG(Error) << "seed entry over 4 GiB: key of " << key.size()
                        << " bytes, value of " << value.size() << " bytes";
    std::abort();
  }
  const uint64_t offset = arena_.size();
  arena_.insert(arena_.end(), key.begin(), key.end());
  arena_.insert(arena_.end(), value.begin(), value.end());
  return offset;
}

bool SeedTable::Put(std::string_view key, std::string_view value) {
  if (const std::optional<uint32_t> entry = Find(key)) {
    Entry& e = entries_[*entry];
    e.offset = Append(key, value);
    e.value_size = static_cast<uint32_t>(value.size());
    return false;
  }
  if (2 * (entries_.size() + 1) > index_.size()) {
    Rehash(IndexCapacityFor(entries_.size() + 1));
  }
  const uint64_t offset = Append(key, value);
  entries_.push_back({offset, static_cast<uint32_t>(key.size()),
                      static_cast<uint32_t>(value.size())});
  index_[SlotOf(key)] = static_cast<uint32_t>(entries_.size() - 1);
  return true;
}

void SeedTable::Reserve(size_t entries, size_t arena_bytes) {
  arena_.reserve(arena_bytes);
  entries_.reserve(entries);
  if (2 * entries > index_.size()) Rehash(IndexCapacityFor(entries));
}

size_t SeedTable::IndexCapacityFor(size_t entries) const {
  // At most half full, so a probe run stays short.
  size_t capacity = index_.empty() ? 16 : index_.size();
  while (2 * entries > capacity) capacity *= 2;
  return capacity;
}

void SeedTable::Rehash(size_t capacity) {
  index_.assign(capacity, kEmpty);
  for (uint32_t entry = 0; entry < entries_.size(); ++entry) {
    index_[SlotOf(key(entry))] = entry;
  }
}

}  // namespace fabricpp::statedb
