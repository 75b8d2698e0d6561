#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "crypto/sha256_internal.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace fabricpp::crypto {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

namespace internal {

void CompressPortable(uint32_t state[8], const uint8_t* blocks, size_t count) {
  for (; count > 0; --count, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

// Intel's SHA extensions keep the eight state words as two vectors, ABEF
// and CDGH; each _mm_sha256rnds2_epu32 runs two rounds, and msg1/msg2
// extend the message schedule four words at a time.
__attribute__((target("sha,sse4.1"))) void CompressShaNi(
    uint32_t state[8], const uint8_t* blocks, size_t count) {
  // Byte-swaps each 32-bit word: the message is big-endian.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  // Loaded as vectors (highest lane first), state[0..3] is DCBA and
  // state[4..7] is HGFE.
  __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0])), 0xB1);
  __m128i cdgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4])), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, cdab, 0xF0);

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // msg[g & 3] holds schedule words W[4g .. 4g+3].
    __m128i msg[4];
    for (int i = 0; i < 4; ++i) {
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          kByteSwap);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& w = msg[g & 3];
      if (g >= 4) {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16], four at once.
        const __m128i& prev = msg[(g - 1) & 3];
        w = _mm_sha256msg1_epu32(w, msg[(g - 3) & 3]);
        w = _mm_add_epi32(w, _mm_alignr_epi8(prev, msg[(g - 2) & 3], 4));
        w = _mm_sha256msg2_epu32(w, prev);
      }
      __m128i wk = _mm_add_epi32(
          w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
      // Two rounds each; the first result is the ABEF the second consumes
      // and, once it has run, the new CDGH.
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool HasShaExtensions() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
         __builtin_cpu_supports("ssse3");
}

#else

void CompressShaNi(uint32_t state[8], const uint8_t* blocks, size_t count) {
  CompressPortable(state, blocks, count);
}

bool HasShaExtensions() { return false; }

#endif

}  // namespace internal

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::Compress(uint32_t state[8], const uint8_t* blocks,
                      size_t count) {
  // Chosen once, on first use: a function-local static is thread-safe and,
  // unlike a namespace-scope pointer, cannot be read before it is set by a
  // static initializer in another translation unit that hashes.
  static const auto compress = internal::HasShaExtensions()
                                   ? internal::CompressShaNi
                                   : internal::CompressPortable;
  compress(state, blocks, count);
}

void Sha256::Update(const void* data, size_t size) {
  if (size == 0) return;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  bit_count_ += static_cast<uint64_t>(size) * 8;
  if (buffer_len_ > 0) {
    const size_t take = std::min(size, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    size -= take;
    if (buffer_len_ < sizeof(buffer_)) return;
    Compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  // Whole blocks straight from the caller's buffer; the tail waits.
  const size_t blocks = size / sizeof(buffer_);
  if (blocks > 0) {
    Compress(state_, p, blocks);
    p += blocks * sizeof(buffer_);
    size -= blocks * sizeof(buffer_);
  }
  if (size > 0) std::memcpy(buffer_, p, size);
  buffer_len_ = size;
}

Digest Sha256::Finalize() {
  // Padding: 0x80, zeros, 64-bit big-endian length.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
    Compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_count_ >> (56 - 8 * i));
  }
  Compress(state_, buffer_, 1);
  buffer_len_ = 0;

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Digest Sha256::Hash(const void* data, size_t size) {
  Sha256 h;
  h.Update(data, size);
  return h.Finalize();
}

std::string DigestToHex(const Digest& d) {
  return HexEncode(d.data(), d.size());
}

}  // namespace fabricpp::crypto
