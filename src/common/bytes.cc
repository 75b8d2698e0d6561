#include "common/bytes.h"

namespace fabricpp {

void ByteWriter::PutU32(uint32_t v) {
  if (out_ == nullptr) {
    counted_ += 4;
    return;
  }
  for (int i = 0; i < 4; ++i) out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::PutU64(uint64_t v) {
  if (out_ == nullptr) {
    counted_ += 8;
    return;
  }
  for (int i = 0; i < 8; ++i) out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    PutU8(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  PutU8(static_cast<uint8_t>(v));
}

void ByteWriter::PutString(std::string_view s) {
  PutVarint(s.size());
  PutRaw(s.data(), s.size());
}

void ByteWriter::PutBytes(const Bytes& b) {
  PutVarint(b.size());
  PutRaw(b.data(), b.size());
}

void ByteWriter::PutRaw(const void* data, size_t size) {
  if (out_ == nullptr) {
    counted_ += size;
    return;
  }
  const uint8_t* p = static_cast<const uint8_t*>(data);
  out_->insert(out_->end(), p, p + size);
}

Result<uint8_t> ByteReader::GetU8() {
  if (remaining() < 1) return Status::OutOfRange("truncated u8");
  return data_[pos_++];
}

Result<uint32_t> ByteReader::GetU32() {
  if (remaining() < 4) return Status::OutOfRange("truncated u32");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

Result<uint64_t> ByteReader::GetU64() {
  if (remaining() < 8) return Status::OutOfRange("truncated u64");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

Result<uint64_t> ByteReader::GetVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (remaining() < 1) return Status::OutOfRange("truncated varint");
    if (shift >= 64) return Status::OutOfRange("varint overflow");
    const uint8_t byte = data_[pos_++];
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

Result<std::string> ByteReader::GetString() {
  FABRICPP_ASSIGN_OR_RETURN(const uint64_t len, GetVarint());
  if (remaining() < len) return Status::OutOfRange("truncated string");
  std::string s(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<size_t>(len));
  pos_ += len;
  return s;
}

Result<Bytes> ByteReader::GetBytes() {
  FABRICPP_ASSIGN_OR_RETURN(const uint64_t len, GetVarint());
  if (remaining() < len) return Status::OutOfRange("truncated bytes");
  Bytes b(data_ + pos_, data_ + pos_ + len);
  pos_ += len;
  return b;
}

std::string HexEncode(const uint8_t* data, size_t size) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(size * 2);
  for (size_t i = 0; i < size; ++i) {
    out.push_back(kHex[data[i] >> 4]);
    out.push_back(kHex[data[i] & 0xf]);
  }
  return out;
}

std::string HexEncode(const Bytes& b) { return HexEncode(b.data(), b.size()); }

}  // namespace fabricpp
