#ifndef FABRICPP_CRYPTO_SHA256_INTERNAL_H_
#define FABRICPP_CRYPTO_SHA256_INTERNAL_H_

#include <cstddef>
#include <cstdint>

// The two SHA-256 compression functions behind crypto::Sha256, exposed so
// tests can run both on the same input. Not part of the crypto API.

namespace fabricpp::crypto::internal {

/// Runs the FIPS 180-4 compression over `count` consecutive 64-byte blocks,
/// updating `state` in place. Plain C++; the reference the SHA-NI path is
/// tested against, and the path taken on CPUs without the extension.
void CompressPortable(uint32_t state[8], const uint8_t* blocks, size_t count);

/// The same compression on the x86 SHA extensions. Call only when
/// HasShaExtensions() is true; off x86-64 it forwards to CompressPortable.
void CompressShaNi(uint32_t state[8], const uint8_t* blocks, size_t count);

/// Whether this CPU implements the SHA extensions (and SSE4.1/SSSE3, which
/// CompressShaNi also uses).
bool HasShaExtensions();

}  // namespace fabricpp::crypto::internal

#endif  // FABRICPP_CRYPTO_SHA256_INTERNAL_H_
