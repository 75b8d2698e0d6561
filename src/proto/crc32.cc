#include "proto/crc32.h"

namespace fabricpp::proto {

namespace {

struct Crc32Table {
  uint32_t entries[256];
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
      }
      entries[i] = c;
    }
  }
};

const Crc32Table& Table() {
  static const Crc32Table table;
  return table;
}

}  // namespace

uint32_t Crc32Extend(uint32_t crc, const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    c = Table().entries[(c ^ p[i]) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

uint32_t Crc32(const void* data, size_t size) {
  return Crc32Extend(0, data, size);
}

}  // namespace fabricpp::proto
