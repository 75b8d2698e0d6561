#ifndef FABRICPP_CRYPTO_IDENTITY_H_
#define FABRICPP_CRYPTO_IDENTITY_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace fabricpp::crypto {

/// A signature produced by an Identity: the signer's name plus an
/// HMAC-SHA256 tag over the signed message.
struct Signature {
  std::string signer;
  Digest tag{};

  friend bool operator==(const Signature& a, const Signature& b) {
    return a.signer == b.signer && a.tag == b.tag;
  }
};

/// A named signing identity (a peer or client of the network), analogous to
/// an MSP enrollment certificate in Fabric.
///
/// Identities are derived deterministically from (network seed, name), so
/// every component that knows the network seed can verify any signature by
/// recomputation — this mirrors the trust model of the paper's validation
/// phase where all peers can recompute endorser signatures. Tamper tests
/// flip message bytes and assert verification failure.
class Identity {
 public:
  /// Derives the secret key as SHA-256(seed || name).
  Identity(uint64_t network_seed, std::string name);

  const std::string& name() const { return name_; }

  /// Signs a canonical message encoding.
  Signature Sign(const Bytes& message) const;
  Signature Sign(std::string_view message) const;

  /// Recomputes the tag and compares (constant content equality).
  bool Verify(const Bytes& message, const Signature& sig) const;

 private:
  std::string name_;
  HmacSha256Key key_;
};

}  // namespace fabricpp::crypto

#endif  // FABRICPP_CRYPTO_IDENTITY_H_
