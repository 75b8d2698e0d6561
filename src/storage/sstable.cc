#include "storage/sstable.h"

#include <fcntl.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "proto/crc32.h"

namespace fabricpp::storage {

namespace {

constexpr uint64_t kMagic = 0xfab81c557ab1e002ULL;
constexpr size_t kIndexInterval = 16;
constexpr size_t kFooterSize = 8 + 8 + 4 + 8;  // offset, count, crc, magic.

}  // namespace

/// Shared POSIX file handle: pread() keeps per-call offsets, so concurrent
/// readers (Get from worker pools, iterators) never race on a seek pointer.
class Sstable::File {
 public:
  static Result<std::shared_ptr<File>> Open(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return Status::NotFound("sstable missing: " + path + ": " +
                              std::strerror(errno));
    }
    auto file = std::make_shared<File>();
    file->fd_ = fd;
    file->path_ = path;
    return file;
  }

  ~File() {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(uint64_t offset, size_t n, uint8_t* out) const {
    size_t done = 0;
    while (done < n) {
      const ssize_t got = ::pread(fd_, out + done, n - done,
                                  static_cast<off_t>(offset + done));
      if (got < 0) {
        if (errno == EINTR) continue;
        return Status::Internal("sstable pread failed: " + path_ + ": " +
                                std::strerror(errno));
      }
      if (got == 0) {
        return Status::Internal("sstable short read: " + path_);
      }
      done += static_cast<size_t>(got);
    }
    return Status::OK();
  }

 private:
  int fd_ = -1;
  std::string path_;
};

void SstableBuilder::Add(std::string_view key, EntryType type,
                         std::string_view value) {
  assert(entries_.empty() || entries_.back().key < key);
  entries_.push_back(
      TableEntry{std::string(key), type, std::string(value)});
}

Status SstableBuilder::Finish(const std::string& path) {
  Bytes out;
  ByteWriter writer(&out);

  std::vector<std::pair<std::string, uint64_t>> index;

  for (size_t i = 0; i < entries_.size(); ++i) {
    const TableEntry& entry = entries_[i];
    if (i % kIndexInterval == 0) {
      index.emplace_back(entry.key, out.size());
    }
    writer.PutString(entry.key);
    writer.PutU8(static_cast<uint8_t>(entry.type));
    writer.PutString(entry.value);
  }

  const uint64_t index_offset = out.size();
  writer.PutVarint(index.size());
  for (const auto& [key, offset] : index) {
    writer.PutString(key);
    writer.PutU64(offset);
  }

  // Footer (fixed size): index_offset, num_entries, crc(data up to footer),
  // magic.
  const uint32_t crc = proto::Crc32(out.data(), out.size());
  writer.PutU64(index_offset);
  writer.PutU64(entries_.size());
  writer.PutU32(crc);
  writer.PutU64(kMagic);

  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::Internal("cannot create sstable " + path + ": " +
                            std::strerror(errno));
  }
  const bool ok = std::fwrite(out.data(), 1, out.size(), file) == out.size();
  std::fclose(file);
  if (!ok) return Status::Internal("sstable write failed: " + path);
  entries_.clear();
  return Status::OK();
}

Result<Sstable> Sstable::Open(const std::string& path) {
  // Validation pass: read the whole file once to check the footer and CRC.
  // Afterwards only the index and bounds stay in memory; entry blocks are
  // re-read on demand through the retained descriptor.
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("sstable missing: " + path);
  }
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fseek(file, 0, SEEK_SET);
  Bytes data(static_cast<size_t>(size));
  const bool ok =
      std::fread(data.data(), 1, data.size(), file) == data.size();
  std::fclose(file);
  if (!ok) return Status::Internal("sstable read failed: " + path);
  if (data.size() < kFooterSize) {
    return Status::Internal("sstable truncated: " + path);
  }

  ByteReader footer(data.data() + data.size() - kFooterSize, kFooterSize);
  FABRICPP_ASSIGN_OR_RETURN(const uint64_t index_offset, footer.GetU64());
  FABRICPP_ASSIGN_OR_RETURN(const uint64_t num_entries, footer.GetU64());
  FABRICPP_ASSIGN_OR_RETURN(const uint32_t crc, footer.GetU32());
  FABRICPP_ASSIGN_OR_RETURN(const uint64_t magic, footer.GetU64());
  if (magic != kMagic) {
    return Status::Internal("sstable bad magic: " + path);
  }
  if (index_offset > data.size() - kFooterSize) {
    return Status::Internal("sstable bad offsets: " + path);
  }
  if (proto::Crc32(data.data(), data.size() - kFooterSize) != crc) {
    return Status::Internal("sstable crc mismatch: " + path);
  }

  Sstable table;
  table.path_ = path;
  table.index_offset_ = index_offset;
  table.num_entries_ = num_entries;

  // Index block.
  {
    ByteReader reader(data.data() + index_offset,
                      data.size() - kFooterSize - index_offset);
    FABRICPP_ASSIGN_OR_RETURN(const uint64_t count, reader.GetVarint());
    table.index_.reserve(count);
    uint64_t prev_offset = 0;
    for (uint64_t i = 0; i < count; ++i) {
      FABRICPP_ASSIGN_OR_RETURN(std::string key, reader.GetString());
      FABRICPP_ASSIGN_OR_RETURN(const uint64_t offset, reader.GetU64());
      if (offset > index_offset || (i > 0 && offset <= prev_offset)) {
        return Status::Internal("sstable bad index offsets: " + path);
      }
      prev_offset = offset;
      table.index_.emplace_back(std::move(key), offset);
    }
  }
  // Key bounds, decoded from the validated in-memory copy before it is
  // dropped: smallest = first entry, largest = last entry of the last block.
  if (num_entries > 0) {
    if (table.index_.empty()) {
      return Status::Internal("sstable entries without index: " + path);
    }
    ByteReader first(data.data(), index_offset);
    FABRICPP_ASSIGN_OR_RETURN(const TableEntry first_entry,
                              DecodeEntry(&first));
    table.smallest_key_ = first_entry.key;
    const uint64_t last_block = table.index_.back().second;
    ByteReader scan(data.data() + last_block, index_offset - last_block);
    std::string largest;
    while (!scan.AtEnd()) {
      FABRICPP_ASSIGN_OR_RETURN(const TableEntry entry, DecodeEntry(&scan));
      largest = entry.key;
    }
    table.largest_key_ = largest;
  }
  FABRICPP_ASSIGN_OR_RETURN(table.file_, File::Open(path));
  return table;
}

Result<TableEntry> Sstable::DecodeEntry(ByteReader* reader) {
  TableEntry entry;
  FABRICPP_ASSIGN_OR_RETURN(entry.key, reader->GetString());
  FABRICPP_ASSIGN_OR_RETURN(const uint8_t type, reader->GetU8());
  entry.type = static_cast<EntryType>(type);
  FABRICPP_ASSIGN_OR_RETURN(entry.value, reader->GetString());
  return entry;
}

Result<Bytes> Sstable::ReadBlock(size_t block) const {
  const uint64_t offset = BlockOffset(block);
  Bytes buf(static_cast<size_t>(BlockEnd(block) - offset));
  FABRICPP_RETURN_IF_ERROR(file_->Read(offset, buf.size(), buf.data()));
  return buf;
}

std::optional<TableEntry> Sstable::Get(std::string_view key) const {
  if (num_entries_ == 0) return std::nullopt;
  if (key < smallest_key_ || key > largest_key_) return std::nullopt;

  // Greatest index point with index_key <= key.
  size_t lo = 0, hi = index_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (index_[mid].first <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return std::nullopt;  // key < first entry.

  // The match, if any, lies inside block lo-1: its first key is <= key and
  // the next block's first key is > key.
  const auto block = ReadBlock(lo - 1);
  if (!block.ok()) return std::nullopt;
  ByteReader reader(*block);
  while (!reader.AtEnd()) {
    const auto entry = DecodeEntry(&reader);
    if (!entry.ok()) return std::nullopt;
    if (entry->key == key) return *entry;
    if (entry->key > key) return std::nullopt;
  }
  return std::nullopt;
}

void Sstable::Iterator::Advance() {
  while (true) {
    if (pos_ < data_.size()) {
      ByteReader reader(data_.data() + pos_, data_.size() - pos_);
      const auto entry = DecodeEntry(&reader);
      if (!entry.ok()) {
        valid_ = false;
        return;
      }
      pos_ = data_.size() - reader.remaining();
      entry_ = *entry;
      valid_ = true;
      return;
    }
    if (block_ >= table_->num_blocks()) {
      valid_ = false;
      return;
    }
    auto block = table_->ReadBlock(block_);
    if (!block.ok()) {
      valid_ = false;
      return;
    }
    data_ = std::move(block).value();
    pos_ = 0;
    ++block_;
  }
}

void Sstable::ForEach(
    const std::function<void(const TableEntry&)>& fn) const {
  for (Iterator it = NewIterator(); it.Valid(); it.Next()) {
    fn(it.entry());
  }
}

}  // namespace fabricpp::storage
