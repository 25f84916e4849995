#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define REPRO_SHA256_X86 1
#endif

namespace repro::crypto {
namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kK = {
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

inline std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#ifdef REPRO_SHA256_X86

// SHA-NI keeps the eight working variables as two vectors, ABEF and CDGH
// (highest lane first); each sha256rnds2 runs two rounds, and msg1/msg2
// compute the message schedule four words at a time.
#define REPRO_SHANI __attribute__((target("sha,sse4.1"), always_inline)) inline

// Four rounds on schedule words `w` (t = 4g .. 4g+3).
REPRO_SHANI void shani_rounds4(__m128i& abef, __m128i& cdgh, __m128i w, int g) {
  const __m128i wk =
      _mm_add_epi32(w, _mm_load_si128(reinterpret_cast<const __m128i*>(kK.data() + 4 * g)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// The next four schedule words from the previous sixteen, oldest first:
// W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16].
REPRO_SHANI __m128i shani_schedule(__m128i w16, __m128i w12, __m128i w8, __m128i w4) {
  const __m128i w7 = _mm_alignr_epi8(w4, w8, 4);
  return _mm_sha256msg2_epu32(_mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), w7), w4);
}

__attribute__((target("sha,sse4.1"))) void compress_shani(std::uint32_t* state,
                                                         const std::uint8_t* blocks,
                                                         std::size_t nblocks) {
  // Big-endian message words: byte-swap each 32-bit lane.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i badc = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(badc, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, badc, 0xF0);

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const auto* p = reinterpret_cast<const __m128i*>(blocks);
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), bswap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(p + 1), bswap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(p + 2), bswap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(p + 3), bswap);
    shani_rounds4(abef, cdgh, w0, 0);
    shani_rounds4(abef, cdgh, w1, 1);
    shani_rounds4(abef, cdgh, w2, 2);
    shani_rounds4(abef, cdgh, w3, 3);
    for (int g = 4; g < 16; g += 4) {
      w0 = shani_schedule(w0, w1, w2, w3);
      shani_rounds4(abef, cdgh, w0, g);
      w1 = shani_schedule(w1, w2, w3, w0);
      shani_rounds4(abef, cdgh, w1, g + 1);
      w2 = shani_schedule(w2, w3, w0, w1);
      shani_rounds4(abef, cdgh, w2, g + 2);
      w3 = shani_schedule(w3, w0, w1, w2);
      shani_rounds4(abef, cdgh, w3, g + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

#undef REPRO_SHANI

#endif  // REPRO_SHA256_X86

detail::Compressor pick_compressor() {
#ifdef REPRO_SHA256_X86
  __builtin_cpu_init();  // may run before the runtime's own constructor
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) return compress_shani;
#endif
  return detail::compress_portable;
}

}  // namespace

namespace detail {

void compress_portable(std::uint32_t* state, const std::uint8_t* blocks, std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t(blocks[i * 4]) << 24) | (std::uint32_t(blocks[i * 4 + 1]) << 16) |
             (std::uint32_t(blocks[i * 4 + 2]) << 8) | std::uint32_t(blocks[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
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

Compressor active_compressor() {
  static const Compressor compress = pick_compressor();
  return compress;
}

const char* active_kernel_name() {
  return active_compressor() == &compress_portable ? "portable" : "sha-ni";
}

}  // namespace detail

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  bit_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::update(BytesView data) {
  // An empty view may carry a null pointer, which memcpy must not see.
  if (data.empty()) return;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  bit_len_ += static_cast<std::uint64_t>(n) * 8;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(n, 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ < 64) return;
    compress_(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  if (const std::size_t blocks = n / 64; blocks > 0) {
    compress_(state_.data(), p, blocks);
    p += blocks * 64;
    n -= blocks * 64;
  }
  if (n > 0) {
    std::memcpy(buffer_.data(), p, n);
    buffer_len_ = n;
  }
}

Digest Sha256::finalize() {
  // Pad in place: 0x80, zeros, 64-bit big-endian bit length. A tail past
  // byte 55 leaves no room for the length, which then takes a block of
  // its own.
  std::size_t len = buffer_len_;
  buffer_[len++] = 0x80;
  if (len > 56) {
    std::memset(buffer_.data() + len, 0, 64 - len);
    compress_(state_.data(), buffer_.data(), 1);
    len = 0;
  }
  std::memset(buffer_.data() + len, 0, 56 - len);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len_ >> (56 - 8 * i));
  }
  compress_(state_.data(), buffer_.data(), 1);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(BytesView data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finalize();
}

Digest sha256_tagged(std::string_view tag, BytesView data) {
  Sha256 ctx;
  const std::uint8_t tag_len = static_cast<std::uint8_t>(tag.size());
  ctx.update(BytesView(&tag_len, 1));
  ctx.update(BytesView(reinterpret_cast<const std::uint8_t*>(tag.data()), tag.size()));
  ctx.update(data);
  return ctx.finalize();
}

std::uint64_t digest_prefix_u64(const Digest& d) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(d[i]) << (8 * i);
  return v;
}

}  // namespace repro::crypto
