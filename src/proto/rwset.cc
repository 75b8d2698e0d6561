#include "proto/rwset.h"

#include <algorithm>

#include "common/strings.h"

namespace fabricpp::proto {

std::string Version::ToString() const {
  return StrFormat("v(%llu,%u)", static_cast<unsigned long long>(block_num),
                   tx_num);
}

void ReadWriteSet::EncodeTo(ByteWriter* w) const {
  w->PutVarint(reads.size());
  for (const ReadItem& r : reads) {
    w->PutString(r.key);
    w->PutVarint(r.version.block_num);
    w->PutVarint(r.version.tx_num);
  }
  w->PutVarint(writes.size());
  for (const WriteItem& wr : writes) {
    w->PutString(wr.key);
    w->PutU8(wr.is_delete ? 1 : 0);
    w->PutString(wr.value);
  }
}

Bytes ReadWriteSet::Encode() const {
  Bytes out;
  ByteWriter w(&out);
  EncodeTo(&w);
  return out;
}

namespace {

/// Bounds a decoded element count before reserve(): every element costs at
/// least one encoded byte, so a count beyond the bytes left is garbage. A
/// hostile varint must yield a decode error, never a length_error/OOM abort.
Status CheckCount(uint64_t count, const ByteReader& r, const char* what) {
  if (count > r.remaining()) {
    return Status::DataLoss(std::string("implausible ") + what +
                            " count in encoded rwset");
  }
  return Status::OK();
}

}  // namespace

Result<ReadWriteSet> ReadWriteSet::Decode(ByteReader* r) {
  ReadWriteSet set;
  FABRICPP_ASSIGN_OR_RETURN(const uint64_t num_reads, r->GetVarint());
  FABRICPP_RETURN_IF_ERROR(CheckCount(num_reads, *r, "read"));
  set.reads.reserve(num_reads);
  for (uint64_t i = 0; i < num_reads; ++i) {
    ReadItem item;
    FABRICPP_ASSIGN_OR_RETURN(item.key, r->GetString());
    FABRICPP_ASSIGN_OR_RETURN(item.version.block_num, r->GetVarint());
    FABRICPP_ASSIGN_OR_RETURN(const uint64_t tx_num, r->GetVarint());
    item.version.tx_num = static_cast<uint32_t>(tx_num);
    set.reads.push_back(std::move(item));
  }
  FABRICPP_ASSIGN_OR_RETURN(const uint64_t num_writes, r->GetVarint());
  FABRICPP_RETURN_IF_ERROR(CheckCount(num_writes, *r, "write"));
  set.writes.reserve(num_writes);
  for (uint64_t i = 0; i < num_writes; ++i) {
    WriteItem item;
    FABRICPP_ASSIGN_OR_RETURN(item.key, r->GetString());
    FABRICPP_ASSIGN_OR_RETURN(const uint8_t is_delete, r->GetU8());
    item.is_delete = is_delete != 0;
    FABRICPP_ASSIGN_OR_RETURN(item.value, r->GetString());
    set.writes.push_back(std::move(item));
  }
  return set;
}

uint64_t ReadWriteSet::ByteSize() const { return EncodedSize(*this); }

bool ReadWriteSet::ReadsKey(const std::string& key) const {
  return std::any_of(reads.begin(), reads.end(),
                     [&](const ReadItem& r) { return r.key == key; });
}

bool ReadWriteSet::WritesKey(const std::string& key) const {
  return std::any_of(writes.begin(), writes.end(),
                     [&](const WriteItem& w) { return w.key == key; });
}

}  // namespace fabricpp::proto
