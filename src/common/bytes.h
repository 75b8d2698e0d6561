#ifndef FABRICPP_COMMON_BYTES_H_
#define FABRICPP_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace fabricpp {

using Bytes = std::vector<uint8_t>;

/// Appends canonical little-endian / varint encodings to a byte vector.
///
/// This writer produces the canonical serialization used for (a) hashing
/// transactions and blocks, (b) computing wire sizes fed into the network
/// cost model, and (c) the ledger's on-disk-style block encoding. The format
/// is deliberately simple: fixed-width little-endian integers, LEB128
/// varints, and length-prefixed strings.
class ByteWriter {
 public:
  explicit ByteWriter(Bytes* out) : out_(out) {}
  /// Size-only mode: stores nothing and counts the bytes the same calls
  /// would append (counted()). An encoder runs unchanged in either mode, so
  /// a size counted this way cannot drift from the encoding, and counting
  /// allocates nothing.
  ByteWriter() = default;

  void PutU8(uint8_t v) {
    if (out_ == nullptr) {
      ++counted_;
    } else {
      out_->push_back(v);
    }
  }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// Unsigned LEB128.
  void PutVarint(uint64_t v);
  /// Varint length prefix followed by raw bytes.
  void PutString(std::string_view s);
  void PutBytes(const Bytes& b);
  void PutRaw(const void* data, size_t size);
  /// Varint length prefix followed by what `encode(ByteWriter*)` writes: a
  /// nested encoding, written in place after a size-only pass over it.
  template <typename Encode>
  void PutNested(const Encode& encode) {
    ByteWriter counter;
    encode(&counter);
    PutVarint(counter.counted());
    encode(this);
  }

  /// Bytes counted in size-only mode; 0 for a writer that appends.
  size_t counted() const { return counted_; }

 private:
  Bytes* out_ = nullptr;
  size_t counted_ = 0;
};

/// The number of bytes `encode(ByteWriter*)` writes, counted in size-only
/// mode: no buffer, no copy of what is encoded.
template <typename Encode>
size_t CountBytes(const Encode& encode) {
  ByteWriter counter;
  encode(&counter);
  return counter.counted();
}

/// The size of `value.EncodeTo(w)`'s output, counted without encoding:
/// equal to the encoding's size, with no allocation.
template <typename T>
size_t EncodedSize(const T& value) {
  return CountBytes([&value](ByteWriter* w) { value.EncodeTo(w); });
}

/// Reads back what ByteWriter wrote. All getters return an error Status on
/// truncated input instead of crashing — ledger blocks may come from disk.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit ByteReader(const Bytes& b) : ByteReader(b.data(), b.size()) {}
  /// A reader borrows its buffer; constructing from a temporary would
  /// dangle immediately.
  explicit ByteReader(Bytes&&) = delete;

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<uint64_t> GetVarint();
  Result<std::string> GetString();
  Result<Bytes> GetBytes();

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

/// Hex encoding of arbitrary bytes (lowercase), e.g. for block hashes in
/// logs and the examples.
std::string HexEncode(const uint8_t* data, size_t size);
std::string HexEncode(const Bytes& b);

}  // namespace fabricpp

#endif  // FABRICPP_COMMON_BYTES_H_
