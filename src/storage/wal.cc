#include "storage/wal.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "proto/crc32.h"

namespace fabricpp::storage {

WalWriter::~WalWriter() { Close(); }

Status WalWriter::Open(const std::string& path) {
  Close();
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::Internal("cannot open wal " + path + ": " +
                            std::strerror(errno));
  }
  return Status::OK();
}

Status WalWriter::Append(const Bytes& payload, bool sync) {
  if (file_ == nullptr) return Status::FailedPrecondition("wal not open");
  uint8_t header[8];
  const uint32_t crc = proto::Crc32(payload.data(), payload.size());
  const uint32_t length = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<uint8_t>(crc >> (8 * i));
    header[4 + i] = static_cast<uint8_t>(length >> (8 * i));
  }
  if (std::fwrite(header, 1, sizeof(header), file_) != sizeof(header) ||
      std::fwrite(payload.data(), 1, payload.size(), file_) !=
          payload.size()) {
    return Status::Internal("wal write failed");
  }
  if (sync) return Sync();
  return Status::OK();
}

Status WalWriter::Sync() {
  if (file_ == nullptr) return Status::FailedPrecondition("wal not open");
  if (std::fflush(file_) != 0) return Status::Internal("wal flush failed");
  if (::fsync(::fileno(file_)) != 0) {
    return Status::Internal(std::string("wal fsync failed: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

void WalWriter::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Result<size_t> ReplayWal(const std::string& path,
                         const std::function<Status(const Bytes&)>& fn) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return size_t{0};  // Fresh database.
  std::fseek(file, 0, SEEK_END);
  const long end = std::ftell(file);
  std::fseek(file, 0, SEEK_SET);
  const size_t file_size = end < 0 ? 0 : static_cast<size_t>(end);

  size_t records = 0;
  size_t offset = 0;
  while (offset < file_size) {
    const size_t remaining = file_size - offset;
    // A crash mid-append truncates the file; it cannot corrupt earlier
    // bytes. Everything short of the claimed record therefore classifies
    // as a torn tail (tolerated); everything else is data loss.
    if (remaining < 8) break;  // Partial header at the tail.
    uint8_t header[8];
    if (std::fread(header, 1, sizeof(header), file) != sizeof(header)) break;
    uint32_t crc = 0;
    uint32_t length = 0;
    for (int i = 0; i < 4; ++i) {
      crc |= static_cast<uint32_t>(header[i]) << (8 * i);
      length |= static_cast<uint32_t>(header[4 + i]) << (8 * i);
    }
    if (length > (64u << 20) && length <= remaining - 8) {
      // The full record is present yet its length is implausible — a tear
      // can truncate, never rewrite; this is corruption.
      std::fclose(file);
      return Status::DataLoss(
          "wal record at offset " + std::to_string(offset) +
          " has implausible length " + std::to_string(length));
    }
    if (remaining - 8 < length) break;  // Truncated payload at the tail.
    Bytes payload(length);
    if (std::fread(payload.data(), 1, length, file) != length) break;
    if (proto::Crc32(payload.data(), payload.size()) != crc) {
      if (offset + 8 + length == file_size) break;  // Corrupt final record.
      std::fclose(file);
      return Status::DataLoss(
          "wal record at offset " + std::to_string(offset) +
          " fails its crc with " +
          std::to_string(file_size - offset - 8 - length) +
          " bytes following — mid-log corruption, not a torn tail");
    }
    const Status applied = fn(payload);
    if (!applied.ok()) {
      std::fclose(file);
      return applied;
    }
    ++records;
    offset += 8 + length;
  }
  std::fclose(file);
  return records;
}

}  // namespace fabricpp::storage
