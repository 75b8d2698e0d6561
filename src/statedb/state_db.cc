#include "statedb/state_db.h"

#include <algorithm>
#include <utility>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace fabricpp::statedb {

StateDb::StateDb(std::shared_ptr<const StateDb> genesis)
    : genesis_(std::move(genesis)),
      num_keys_(genesis_ == nullptr ? 0 : genesis_->NumKeys()) {}

const VersionedValue* StateDb::Find(const std::string& key) const {
  const auto it = map_.find(key);
  if (it != map_.end()) return &it->second;
  if (genesis_ == nullptr || tombstones_.count(key) > 0) return nullptr;
  return genesis_->Find(key);
}

void StateDb::Put(const std::string& key, VersionedValue vv) {
  const bool inserted = map_.insert_or_assign(key, std::move(vv)).second;
  // A new local entry grows the merged view unless it shadows a live
  // genesis key; it revives a tombstoned one.
  if (inserted && (tombstones_.erase(key) > 0 || !InGenesis(key))) {
    ++num_keys_;
  }
}

void StateDb::Erase(const std::string& key) {
  const bool was_local = map_.erase(key) > 0;
  if (InGenesis(key)) {
    if (tombstones_.insert(key).second) --num_keys_;
  } else if (was_local) {
    --num_keys_;
  }
}

Result<VersionedValue> StateDb::Get(const std::string& key) const {
  const VersionedValue* vv = Find(key);
  if (vv == nullptr) return Status::NotFound("key not found: " + key);
  return *vv;
}

proto::Version StateDb::GetVersion(const std::string& key) const {
  const VersionedValue* vv = Find(key);
  return vv == nullptr ? proto::kNilVersion : vv->version;
}

void StateDb::SeedInitialState(const std::string& key, std::string value) {
  Put(key, VersionedValue{std::move(value), proto::kNilVersion});
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

void StateDb::ForEach(const std::function<void(const std::string&,
                                               const VersionedValue&)>& fn)
    const {
  for (const auto& [key, vv] : map_) fn(key, vv);
  if (genesis_ == nullptr) return;
  genesis_->ForEach([&](const std::string& key, const VersionedValue& vv) {
    if (map_.count(key) == 0 && tombstones_.count(key) == 0) fn(key, vv);
  });
}

std::string StateDb::Fingerprint() const {
  // Hashes the merged view, so a layered database and a flat one holding
  // the same entries produce the same digest.
  std::vector<std::pair<const std::string*, const VersionedValue*>> entries;
  entries.reserve(num_keys_);
  ForEach([&](const std::string& key, const VersionedValue& vv) {
    entries.emplace_back(&key, &vv);
  });
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  Bytes canonical;
  ByteWriter w(&canonical);
  w.PutU64(last_committed_block_);
  w.PutVarint(entries.size());
  for (const auto& [key, vv] : entries) {
    w.PutString(*key);
    w.PutString(vv->value);
    w.PutU64(vv->version.block_num);
    w.PutU32(vv->version.tx_num);
  }
  return crypto::DigestToHex(crypto::Sha256::Hash(canonical));
}

}  // namespace fabricpp::statedb
