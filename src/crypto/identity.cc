#include "crypto/identity.h"

namespace fabricpp::crypto {

namespace {

Bytes DeriveSecretKey(uint64_t network_seed, const std::string& name) {
  Sha256 h;
  h.Update(&network_seed, sizeof(network_seed));
  h.Update(name);
  const Digest d = h.Finalize();
  return Bytes(d.begin(), d.end());
}

}  // namespace

Identity::Identity(uint64_t network_seed, std::string name)
    : name_(std::move(name)), key_(DeriveSecretKey(network_seed, name_)) {}

Signature Identity::Sign(const Bytes& message) const {
  return Signature{name_, key_.Mac(message)};
}

Signature Identity::Sign(std::string_view message) const {
  return Signature{name_, key_.Mac(message)};
}

bool Identity::Verify(const Bytes& message, const Signature& sig) const {
  if (sig.signer != name_) return false;
  return key_.Mac(message) == sig.tag;
}

}  // namespace fabricpp::crypto
