#ifndef FABRICPP_CRYPTO_HMAC_H_
#define FABRICPP_CRYPTO_HMAC_H_

#include <string_view>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace fabricpp::crypto {

/// HMAC-SHA256 (RFC 2104). Verified against RFC 4231 test vectors.
///
/// fabricpp uses HMAC-SHA256 as its endorsement-signature primitive: each
/// peer holds a secret key; a "signature" over a message is
/// HMAC(key, message), and verification recomputes it. This keeps the
/// validation-phase semantics of the paper (validators *recompute* the
/// expected signature from the received read/write sets and compare,
/// Appendix A.3.1) while replacing ECDSA's cost with a knob in the
/// simulator's cost model.
///
/// HmacSha256Key absorbs the key's ipad and opad blocks once, so each Mac()
/// costs two compressions fewer than the one-shot functions below.
class HmacSha256Key {
 public:
  explicit HmacSha256Key(const Bytes& key);

  Digest Mac(const void* data, size_t size) const;
  Digest Mac(std::string_view msg) const { return Mac(msg.data(), msg.size()); }
  Digest Mac(const Bytes& msg) const { return Mac(msg.data(), msg.size()); }

 private:
  Sha256 inner_;  ///< Has absorbed key ^ ipad.
  Sha256 outer_;  ///< Has absorbed key ^ opad.
};

Digest HmacSha256(const Bytes& key, const void* data, size_t size);
Digest HmacSha256(const Bytes& key, std::string_view msg);
Digest HmacSha256(const Bytes& key, const Bytes& msg);

}  // namespace fabricpp::crypto

#endif  // FABRICPP_CRYPTO_HMAC_H_
