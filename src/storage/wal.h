#ifndef FABRICPP_STORAGE_WAL_H_
#define FABRICPP_STORAGE_WAL_H_

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/status.h"

namespace fabricpp::storage {

/// Write-ahead log. Record format:
///   u32 crc (over payload) | u32 length | payload bytes
/// A torn tail (truncated record or CRC mismatch) ends replay cleanly —
/// everything before it is recovered, mirroring LevelDB's behaviour.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens (appends to) the log file at `path`.
  Status Open(const std::string& path);

  /// Appends one record; does not flush unless `sync`.
  Status Append(const Bytes& payload, bool sync);

  /// Flushes buffered appends to the file and fsyncs it.
  Status Sync();
  void Close();

  bool is_open() const { return file_ != nullptr; }

 private:
  std::FILE* file_ = nullptr;
};

/// Replays a WAL file; invokes `fn` for every intact record in order.
/// Returns the number of records recovered. Missing files recover zero
/// records (fresh database).
///
/// Failure policy: only a torn *tail* is tolerated — a partial header,
/// a truncated payload, or a CRC mismatch on the final record, all of
/// which a crash mid-append legitimately produces. Anything a tear cannot
/// explain fails recovery with kDataLoss instead of silently dropping
/// committed writes: an implausible record length with the full record
/// present, a CRC mismatch *followed by further bytes*, or `fn` rejecting
/// a CRC-clean record (decode failure = corruption, not tearing).
Result<size_t> ReplayWal(const std::string& path,
                         const std::function<Status(const Bytes&)>& fn);

}  // namespace fabricpp::storage

#endif  // FABRICPP_STORAGE_WAL_H_
