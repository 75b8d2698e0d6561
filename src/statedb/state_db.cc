#include "statedb/state_db.h"

#include <algorithm>
#include <utility>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace fabricpp::statedb {

StateDb::StateDb(std::shared_ptr<const StateDb> genesis) {
  if (genesis == nullptr) return;
  *this = *genesis;
  last_committed_block_ = 0;
}

void StateDb::Put(const std::string& key, VersionedValue vv) {
  const bool inserted = map_.insert_or_assign(key, std::move(vv)).second;
  // A new local entry grows the merged view unless it shadows a live
  // seeded key; it revives a tombstoned one.
  if (inserted && (tombstones_.erase(key) > 0 || !Seeded(key))) {
    ++num_keys_;
  }
}

void StateDb::Erase(const std::string& key) {
  const bool was_local = map_.erase(key) > 0;
  if (Seeded(key)) {
    if (tombstones_.insert(key).second) --num_keys_;
  } else if (was_local) {
    --num_keys_;
  }
}

Result<VersionedValue> StateDb::Get(const std::string& key) const {
  if (const auto it = map_.find(key); it != map_.end()) return it->second;
  if (seed_ != nullptr) {
    const std::optional<uint32_t> entry = seed_->Find(key);
    if (entry.has_value() && tombstones_.count(key) == 0) {
      return VersionedValue{std::string(seed_->value(*entry)),
                            proto::kNilVersion};
    }
  }
  return Status::NotFound("key not found: " + key);
}

proto::Version StateDb::GetVersion(const std::string& key) const {
  const auto it = map_.find(key);
  return it == map_.end() ? proto::kNilVersion : it->second.version;
}

void StateDb::SeedInitialState(const std::string& key, std::string value) {
  if (seed_ == nullptr) seed_ = std::make_shared<SeedTable>();
  if (seed_.use_count() == 1 && map_.count(key) == 0 &&
      tombstones_.count(key) == 0) {
    if (seed_->Put(key, value)) ++num_keys_;
    return;
  }
  Put(key, VersionedValue{std::move(value), proto::kNilVersion});
}

void StateDb::ReserveSeeds(size_t entries, size_t arena_bytes) {
  if (seed_ == nullptr) seed_ = std::make_shared<SeedTable>();
  if (seed_.use_count() == 1) seed_->Reserve(entries, arena_bytes);
}

void StateDb::ApplyWrites(const std::vector<proto::WriteItem>& writes,
                          proto::Version version) {
  for (const proto::WriteItem& w : writes) {
    if (w.is_delete) {
      Erase(w.key);
    } else {
      Put(w.key, VersionedValue{w.value, version});
    }
  }
}

void StateDb::ApplyBlock(const std::vector<VersionedWrite>& writes,
                         uint64_t height) {
  for (const VersionedWrite& vw : writes) {
    if (vw.write.is_delete) {
      Erase(vw.write.key);
    } else {
      Put(vw.write.key, VersionedValue{vw.write.value, vw.version});
    }
  }
  last_committed_block_ = height;
}

std::vector<bool> StateDb::ShadowedSeedEntries() const {
  std::vector<bool> shadowed(seed_ == nullptr ? 0 : seed_->size(), false);
  if (seed_ == nullptr) return shadowed;
  for (const auto& [key, vv] : map_) {
    if (const std::optional<uint32_t> entry = seed_->Find(key)) {
      shadowed[*entry] = true;
    }
  }
  for (const std::string& key : tombstones_) shadowed[*seed_->Find(key)] = true;
  return shadowed;
}

void StateDb::ForEach(const std::function<void(const std::string&,
                                               const VersionedValue&)>& fn)
    const {
  for (const auto& [key, vv] : map_) fn(key, vv);
  const std::vector<bool> shadowed = ShadowedSeedEntries();
  for (uint32_t entry = 0; entry < shadowed.size(); ++entry) {
    if (shadowed[entry]) continue;
    fn(std::string(seed_->key(entry)),
       VersionedValue{std::string(seed_->value(entry)), proto::kNilVersion});
  }
}

std::string StateDb::Fingerprint() const {
  // Hashes the merged view in key order, so a layered database and a flat
  // one holding the same entries produce the same digest. The local
  // entries and the live seeded ones hold disjoint keys: each list is
  // sorted on its own and the two are merged.
  using LocalEntry = std::pair<const std::string, VersionedValue>;
  std::vector<const LocalEntry*> local;
  local.reserve(map_.size());
  for (const LocalEntry& entry : map_) local.push_back(&entry);
  std::sort(local.begin(), local.end(),
            [](const LocalEntry* a, const LocalEntry* b) {
              return a->first < b->first;
            });
  std::vector<uint32_t> seeded;
  const std::vector<bool> shadowed = ShadowedSeedEntries();
  seeded.reserve(shadowed.size());
  for (uint32_t entry = 0; entry < shadowed.size(); ++entry) {
    if (!shadowed[entry]) seeded.push_back(entry);
  }
  std::sort(seeded.begin(), seeded.end(), [this](uint32_t a, uint32_t b) {
    return seed_->key(a) < seed_->key(b);
  });

  // The canonical encoding is streamed through the hash a chunk at a time.
  constexpr size_t kChunkBytes = 64 * 1024;
  crypto::Sha256 hash;
  Bytes chunk;
  ByteWriter w(&chunk);
  w.PutU64(last_committed_block_);
  w.PutVarint(local.size() + seeded.size());
  const auto put = [&](std::string_view key, std::string_view value,
                       proto::Version version) {
    w.PutString(key);
    w.PutString(value);
    w.PutU64(version.block_num);
    w.PutU32(version.tx_num);
    if (chunk.size() >= kChunkBytes) {
      hash.Update(chunk);
      chunk.clear();
    }
  };
  auto l = local.begin();
  auto s = seeded.begin();
  while (l != local.end() || s != seeded.end()) {
    if (s == seeded.end() ||
        (l != local.end() && std::string_view((*l)->first) < seed_->key(*s))) {
      put((*l)->first, (*l)->second.value, (*l)->second.version);
      ++l;
    } else {
      put(seed_->key(*s), seed_->value(*s), proto::kNilVersion);
      ++s;
    }
  }
  hash.Update(chunk);
  return crypto::DigestToHex(hash.Finalize());
}

}  // namespace fabricpp::statedb
