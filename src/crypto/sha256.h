#ifndef FABRICPP_CRYPTO_SHA256_H_
#define FABRICPP_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.h"

namespace fabricpp::crypto {

/// A 32-byte SHA-256 digest.
using Digest = std::array<uint8_t, 32>;

/// Incremental SHA-256 (FIPS 180-4). Implemented from scratch; verified
/// against the NIST test vectors in tests/crypto_test.cc.
///
/// Used for: transaction ids, block data hashes (via the Merkle tree), the
/// ledger hash chain, and as the compression function of HMAC signatures.
///
/// The compression runs on the x86 SHA extensions when the CPU has them and
/// on portable C++ otherwise (DESIGN.md §18); both give identical digests.
/// A Sha256 is a plain value: copying one mid-stream forks the hash.
class Sha256 {
 public:
  Sha256() { Reset(); }

  void Reset();
  void Update(const void* data, size_t size);
  void Update(std::string_view s) { Update(s.data(), s.size()); }
  void Update(const Bytes& b) { Update(b.data(), b.size()); }

  /// Finalizes and returns the digest. The object must be Reset() before
  /// reuse.
  Digest Finalize();

  /// One-shot convenience.
  static Digest Hash(const void* data, size_t size);
  static Digest Hash(std::string_view s) { return Hash(s.data(), s.size()); }
  static Digest Hash(const Bytes& b) { return Hash(b.data(), b.size()); }

 private:
  /// Compresses `count` 64-byte blocks into `state`.
  static void Compress(uint32_t state[8], const uint8_t* blocks, size_t count);

  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

/// Lowercase hex rendering of a digest.
std::string DigestToHex(const Digest& d);

}  // namespace fabricpp::crypto

#endif  // FABRICPP_CRYPTO_SHA256_H_
