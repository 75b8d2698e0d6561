// Tests for src/crypto: SHA-256 against FIPS/NIST vectors, the portable and
// SHA-extension compressions against each other, HMAC-SHA256 against RFC
// 4231, identities, and Merkle trees.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "crypto/hmac.h"
#include "crypto/identity.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/sha256_internal.h"

namespace fabricpp::crypto {
namespace {

std::string HashHex(std::string_view input) {
  return DigestToHex(Sha256::Hash(input));
}

// --- SHA-256 (NIST FIPS 180-4 examples + boundary cases) ---

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HashHex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HashHex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      HashHex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(DigestToHex(h.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactBlockBoundaries) {
  // 55/56/64 bytes hit the padding edge cases.
  for (const size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
    const std::string input(len, 'x');
    // Incremental 1-byte updates must equal one-shot hashing.
    Sha256 h;
    for (const char c : input) h.Update(&c, 1);
    EXPECT_EQ(h.Finalize(), Sha256::Hash(input)) << "len=" << len;
  }
}

TEST(Sha256Test, ResetReuses) {
  Sha256 h;
  h.Update("garbage");
  (void)h.Finalize();
  h.Reset();
  h.Update("abc");
  EXPECT_EQ(DigestToHex(h.Finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// --- Both compression paths (portable and SHA extensions) ---

using CompressFn = void (*)(uint32_t*, const uint8_t*, size_t);

/// One-shot SHA-256 through the given compression only, with the padding
/// built here rather than by Sha256::Finalize.
Digest HashWith(CompressFn compress, std::string_view msg) {
  Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const uint64_t bits = static_cast<uint64_t>(msg.size()) * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<uint8_t>(bits >> shift));
  }
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  compress(state, padded.data(), padded.size() / 64);
  Digest out;
  for (int i = 0; i < 32; ++i) {
    out[i] = static_cast<uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

void ExpectNistVectors(CompressFn compress) {
  EXPECT_EQ(DigestToHex(HashWith(compress, "")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(DigestToHex(HashWith(compress, "abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  const std::string two_blocks =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(DigestToHex(HashWith(compress, two_blocks)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(DigestToHex(HashWith(compress, std::string(1000000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256PathsTest, PortableMatchesNistVectors) {
  ExpectNistVectors(internal::CompressPortable);
}

TEST(Sha256PathsTest, ShaExtensionsMatchNistVectors) {
  if (!internal::HasShaExtensions()) {
    GTEST_SKIP() << "CPU has no SHA extensions";
  }
  ExpectNistVectors(internal::CompressShaNi);
}

TEST(Sha256PathsTest, EveryLengthAgreesAcrossPathsAndUpdateSplits) {
  const bool sha_ni = internal::HasShaExtensions();
  std::mt19937_64 rng(2024);
  std::string msg;
  for (size_t len = 0; len <= 4096; ++len) {
    msg.resize(len);
    for (char& c : msg) c = static_cast<char>(rng());
    const Digest expected = HashWith(internal::CompressPortable, msg);
    if (sha_ni) {
      ASSERT_EQ(HashWith(internal::CompressShaNi, msg), expected)
          << "len=" << len;
    }
    // The dispatching hasher, fed in random pieces: exercises the partial
    // buffer, whole blocks taken from the caller's memory, and the padding.
    Sha256 h;
    size_t pos = 0;
    while (pos < len) {
      const size_t take = std::min<size_t>(len - pos, rng() % 150);
      h.Update(msg.data() + pos, take);
      pos += take;
    }
    ASSERT_EQ(h.Finalize(), expected) << "len=" << len;
  }
}

// --- HMAC-SHA256 (RFC 4231 test cases) ---

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Digest d = HmacSha256(key, "Hi There");
  EXPECT_EQ(HexEncode(Bytes(d.begin(), d.end())),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  const Bytes key = {'J', 'e', 'f', 'e'};
  const Digest d = HmacSha256(key, "what do ya want for nothing?");
  EXPECT_EQ(HexEncode(Bytes(d.begin(), d.end())),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  const Digest d = HmacSha256(key, msg);
  EXPECT_EQ(HexEncode(Bytes(d.begin(), d.end())),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  const Digest d =
      HmacSha256(key, "Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(HexEncode(Bytes(d.begin(), d.end())),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, DifferentKeysDifferentTags) {
  const Bytes k1 = {1, 2, 3};
  const Bytes k2 = {1, 2, 4};
  EXPECT_NE(HmacSha256(k1, "msg"), HmacSha256(k2, "msg"));
}

// --- Identity ---

TEST(IdentityTest, SignVerifyRoundTrip) {
  const Identity id(42, "A1");
  const Bytes msg = {1, 2, 3, 4};
  const Signature sig = id.Sign(msg);
  EXPECT_EQ(sig.signer, "A1");
  EXPECT_TRUE(id.Verify(msg, sig));
}

TEST(IdentityTest, TamperedMessageFails) {
  const Identity id(42, "A1");
  Bytes msg = {1, 2, 3, 4};
  const Signature sig = id.Sign(msg);
  msg[0] ^= 0xff;
  EXPECT_FALSE(id.Verify(msg, sig));
}

TEST(IdentityTest, WrongSignerNameFails) {
  const Identity a(42, "A1");
  const Identity b(42, "B1");
  const Bytes msg = {9};
  Signature sig = a.Sign(msg);
  EXPECT_FALSE(b.Verify(msg, sig));
  sig.signer = "B1";  // Claiming to be B1 with A1's tag.
  EXPECT_FALSE(b.Verify(msg, sig));
}

TEST(IdentityTest, SameSeedSameKeys) {
  // Validators reconstruct endorser identities from (seed, name): the two
  // instances must agree.
  const Identity original(7, "peer");
  const Identity reconstructed(7, "peer");
  const Bytes msg = {5, 5, 5};
  EXPECT_TRUE(reconstructed.Verify(msg, original.Sign(msg)));
}

TEST(IdentityTest, SignIsRfc2104HmacUnderDerivedKey) {
  // Identity keeps the key's ipad/opad states from its constructor; its tags
  // must still be HMAC(SHA-256(seed || name), m), checked both against the
  // one-shot HmacSha256 and against the textbook formula
  // H((K ^ opad) || H((K ^ ipad) || m)).
  constexpr uint64_t kSeed = 7;
  const std::string name = "peer0.org1";
  const Identity id(kSeed, name);
  Sha256 kh;
  kh.Update(&kSeed, sizeof(kSeed));
  kh.Update(name);
  const Digest key_digest = kh.Finalize();
  const Bytes key(key_digest.begin(), key_digest.end());

  std::mt19937_64 rng(99);
  for (int i = 0; i < 200; ++i) {
    Bytes msg(rng() % 700);
    for (uint8_t& b : msg) b = static_cast<uint8_t>(rng());

    Bytes inner(64, 0x36);
    Bytes outer(64, 0x5c);
    for (size_t j = 0; j < key.size(); ++j) {
      inner[j] ^= key[j];
      outer[j] ^= key[j];
    }
    inner.insert(inner.end(), msg.begin(), msg.end());
    const Digest inner_digest = Sha256::Hash(inner);
    outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());

    const Signature sig = id.Sign(msg);
    EXPECT_EQ(sig.tag, HmacSha256(key, msg)) << "len=" << msg.size();
    EXPECT_EQ(sig.tag, Sha256::Hash(outer)) << "len=" << msg.size();
    EXPECT_TRUE(id.Verify(msg, sig));
  }
}

TEST(IdentityTest, DifferentSeedsDiffer) {
  const Identity a(1, "peer");
  const Identity b(2, "peer");
  const Bytes msg = {5};
  EXPECT_FALSE(b.Verify(msg, a.Sign(msg)));
}

// --- Merkle ---

TEST(MerkleTest, EmptyTreeIsHashOfNothing) {
  EXPECT_EQ(MerkleRoot({}), Sha256::Hash("", 0));
}

TEST(MerkleTest, SingleLeafIsItself) {
  const Digest leaf = Sha256::Hash("tx0");
  EXPECT_EQ(MerkleRoot({leaf}), leaf);
}

TEST(MerkleTest, RootChangesWithAnyLeaf) {
  std::vector<Digest> leaves;
  for (int i = 0; i < 7; ++i) {
    leaves.push_back(Sha256::Hash("tx" + std::to_string(i)));
  }
  const Digest root = MerkleRoot(leaves);
  for (size_t i = 0; i < leaves.size(); ++i) {
    auto tampered = leaves;
    tampered[i] = Sha256::Hash("evil");
    EXPECT_NE(MerkleRoot(tampered), root) << "leaf " << i;
  }
}

TEST(MerkleTest, OrderMatters) {
  const Digest a = Sha256::Hash("a");
  const Digest b = Sha256::Hash("b");
  EXPECT_NE(MerkleRoot({a, b}), MerkleRoot({b, a}));
}

TEST(MerkleTest, ProofsVerifyForAllLeavesAndSizes) {
  for (const size_t n : {1u, 2u, 3u, 4u, 5u, 8u, 13u}) {
    std::vector<Digest> leaves;
    for (size_t i = 0; i < n; ++i) {
      leaves.push_back(Sha256::Hash("leaf" + std::to_string(i)));
    }
    const Digest root = MerkleRoot(leaves);
    for (size_t i = 0; i < n; ++i) {
      const MerkleProof proof = BuildMerkleProof(leaves, i);
      EXPECT_TRUE(VerifyMerkleProof(leaves[i], proof, root))
          << "n=" << n << " leaf=" << i;
      // A proof for the wrong leaf must fail (except in the 1-leaf tree).
      if (n > 1) {
        EXPECT_FALSE(
            VerifyMerkleProof(Sha256::Hash("other"), proof, root))
            << "n=" << n << " leaf=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace fabricpp::crypto
