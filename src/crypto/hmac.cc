#include "crypto/hmac.h"

#include <cstring>

namespace fabricpp::crypto {

HmacSha256Key::HmacSha256Key(const Bytes& key) {
  constexpr size_t kBlockSize = 64;
  uint8_t key_block[kBlockSize] = {0};
  if (key.size() > kBlockSize) {
    const Digest kd = Sha256::Hash(key);
    std::memcpy(key_block, kd.data(), kd.size());
  } else if (!key.empty()) {
    std::memcpy(key_block, key.data(), key.size());
  }

  uint8_t ipad[kBlockSize];
  uint8_t opad[kBlockSize];
  for (size_t i = 0; i < kBlockSize; ++i) {
    ipad[i] = key_block[i] ^ 0x36;
    opad[i] = key_block[i] ^ 0x5c;
  }
  inner_.Update(ipad, kBlockSize);
  outer_.Update(opad, kBlockSize);
}

Digest HmacSha256Key::Mac(const void* data, size_t size) const {
  Sha256 inner = inner_;
  inner.Update(data, size);
  const Digest inner_digest = inner.Finalize();

  Sha256 outer = outer_;
  outer.Update(inner_digest.data(), inner_digest.size());
  return outer.Finalize();
}

Digest HmacSha256(const Bytes& key, const void* data, size_t size) {
  return HmacSha256Key(key).Mac(data, size);
}

Digest HmacSha256(const Bytes& key, std::string_view msg) {
  return HmacSha256(key, msg.data(), msg.size());
}

Digest HmacSha256(const Bytes& key, const Bytes& msg) {
  return HmacSha256(key, msg.data(), msg.size());
}

}  // namespace fabricpp::crypto
