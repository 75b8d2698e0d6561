#ifndef FABRICPP_PROTO_CRC32_H_
#define FABRICPP_PROTO_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace fabricpp::proto {

/// CRC-32 (IEEE 802.3 polynomial, reflected). Checksums every wire frame
/// (wire_format.h) against corruption on the stream.
uint32_t Crc32(const void* data, size_t size);

/// Incremental form: `crc` is the running value (start with 0).
uint32_t Crc32Extend(uint32_t crc, const void* data, size_t size);

}  // namespace fabricpp::proto

#endif  // FABRICPP_PROTO_CRC32_H_
