#pragma once
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), header-only.
// coe::resil and coe::phoenix use it to fingerprint checkpoint blobs so a
// restore can refuse a corrupt one; it is deliberately the real algorithm
// (not a stand-in hash) so stored checksums are stable across platforms
// and match external crc32 tools byte for byte.
//
// Two paths compute the same values. Every value must equal the
// byte-at-a-time table loop's (and zlib's crc32) for every input, seed and
// alignment: stored checksums are compared across builds.
//
//  * Carry-less-multiply folding (x86-64 with PCLMULQDQ, checked once at
//    run time): inputs of 64 bytes or more are folded 4x128 bits at a
//    time, then 128 bits at a time, reduced 128 -> 64 -> 32 bits and
//    finished with a bit-reflected Barrett reduction. It covers every
//    whole 16-byte block; the table loop below takes the < 16-byte tail.
//  * Slicing-by-8 (detail::crc32_table): eight 256-entry tables fold
//    eight input bytes per step, and a byte-at-a-time loop finishes the
//    tail. It serves inputs under 64 bytes, and everything on CPUs
//    without PCLMULQDQ and on other architectures.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define COE_CRC32_CLMUL 1
#include <emmintrin.h>
#include <wmmintrin.h>
#endif

namespace coe::core {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// t[0] is the classic byte table; t[k][i] is t[0][i] carried through k
/// further zero bytes, so t[k] folds the byte of an 8-byte block that k
/// more bytes of the block follow.
constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

/// Eight bytes as a little-endian word, from any alignment.
inline std::uint64_t load_le64(const unsigned char* p) {
  std::uint64_t w = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&w, p, sizeof(w));
  } else {
    for (int b = 7; b >= 0; --b) w = (w << 8) | p[b];
  }
  return w;
}

/// The slicing-by-8 table loop: the whole checksum on the portable path,
/// and the tail of the folding path. Same contract as core::crc32.
inline std::uint32_t crc32_table(const void* data, std::size_t len,
                                 std::uint32_t seed = 0) {
  const auto& t = kCrc32Tables;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~seed;
  for (; len >= 8; len -= 8, p += 8) {
    const std::uint64_t w = load_le64(p) ^ c;
    const auto lo = static_cast<std::uint32_t>(w);
    const auto hi = static_cast<std::uint32_t>(w >> 32);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; --len, ++p) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return ~c;
}

// Folding constants, derived from the normal-order polynomial
// P(x) = 0x104C11DB7. In the reflected domain a fold across n bits
// multiplies by x^n mod P, bit-reversed over 32 bits and shifted left one
// (the product of two reflected operands comes out one bit short).

/// x^n mod P(x), normal bit order.
constexpr std::uint32_t crc32_xpow_mod(int n) {
  std::uint32_t r = 1;
  for (int i = 0; i < n; ++i) {
    r = (r & 0x80000000u) ? (r << 1) ^ 0x04C11DB7u : r << 1;
  }
  return r;
}

/// Reverses the low `bits` bits of v.
constexpr std::uint64_t crc32_reflect(std::uint64_t v, int bits) {
  std::uint64_t r = 0;
  for (int i = 0; i < bits; ++i) r |= ((v >> i) & 1u) << (bits - 1 - i);
  return r;
}

constexpr std::uint64_t crc32_fold_constant(int n) {
  return crc32_reflect(crc32_xpow_mod(n), 32) << 1;
}

/// floor(x^64 / P(x)), the Barrett quotient, normal bit order (33 bits).
constexpr std::uint64_t crc32_barrett_mu() {
  constexpr std::uint64_t kP = 0x104C11DB7u;
  std::uint64_t rem = 0, q = 0;
  // Long division of x^64 (a 1 followed by 64 zero bits), one bit at a
  // time; rem holds the running 33-bit remainder.
  for (int i = 64; i >= 0; --i) {
    rem = (rem << 1) | (i == 64 ? 1u : 0u);
    q <<= 1;
    if (rem & (std::uint64_t{1} << 32)) {
      rem ^= kP;
      q |= 1u;
    }
  }
  return q;
}

// Fold 4x128 bits forward (R1, R2), 1x128 (R3, R4), 64 -> 32 (R5), and the
// Barrett pair: P' is the reflected polynomial, mu' the reflected
// quotient. The literals are those of Linux's crc32-pclmul_asm.S.
inline constexpr std::uint64_t kCrc32R1 = crc32_fold_constant(4 * 128 + 32);
inline constexpr std::uint64_t kCrc32R2 = crc32_fold_constant(4 * 128 - 32);
inline constexpr std::uint64_t kCrc32R3 = crc32_fold_constant(128 + 32);
inline constexpr std::uint64_t kCrc32R4 = crc32_fold_constant(128 - 32);
inline constexpr std::uint64_t kCrc32R5 = crc32_fold_constant(64);
inline constexpr std::uint64_t kCrc32Poly = crc32_reflect(0x104C11DB7u, 33);
inline constexpr std::uint64_t kCrc32Mu = crc32_reflect(crc32_barrett_mu(), 33);
static_assert(kCrc32R1 == 0x154442bd4u && kCrc32R2 == 0x1c6e41596u);
static_assert(kCrc32R3 == 0x1751997d0u && kCrc32R4 == 0x0ccaa009eu);
static_assert(kCrc32R5 == 0x163cd6124u);
static_assert(kCrc32Poly == 0x1DB710641u && kCrc32Mu == 0x1F7011641u);

#ifdef COE_CRC32_CLMUL

/// x.lo * k.lo ^ x.hi * k.hi ^ next: the 128 bits in x carried forward
/// across the distance k encodes, onto `next`.
__attribute__((target("pclmul"))) inline __m128i crc32_fold(__m128i x,
                                                             __m128i k,
                                                             __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Folds the 16-byte blocks of p[0, len) (len >= 64, a multiple of 16)
/// into the running CRC state `c` (the ~seed form) and returns the state.
__attribute__((target("pclmul"))) inline std::uint32_t crc32_clmul(
    const unsigned char* p, std::size_t len, std::uint32_t c) {
  auto load = [](const unsigned char* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  const __m128i k12 = _mm_set_epi64x(static_cast<long long>(kCrc32R2),
                                     static_cast<long long>(kCrc32R1));
  const __m128i k34 = _mm_set_epi64x(static_cast<long long>(kCrc32R4),
                                     static_cast<long long>(kCrc32R3));
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  len -= 64;
  for (; len >= 64; len -= 64, p += 64) {
    x0 = crc32_fold(x0, k12, load(p));
    x1 = crc32_fold(x1, k12, load(p + 16));
    x2 = crc32_fold(x2, k12, load(p + 32));
    x3 = crc32_fold(x3, k12, load(p + 48));
  }
  x0 = crc32_fold(x0, k34, x1);
  x0 = crc32_fold(x0, k34, x2);
  x0 = crc32_fold(x0, k34, x3);
  for (; len >= 16; len -= 16, p += 16) x0 = crc32_fold(x0, k34, load(p));

  // 128 -> 64 bits: the low half times R4, onto the high half.
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, k34, 0x10),
                     _mm_srli_si128(x0, 8));
  // 64 -> 32 bits: the low word times R5, onto the rest.
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  const __m128i k5 = _mm_set_epi64x(0, static_cast<long long>(kCrc32R5));
  x0 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), k5, 0x00),
      _mm_srli_si128(x0, 4));
  // Barrett reduction to the 32-bit remainder, left in bits 32..63.
  const __m128i pmu = _mm_set_epi64x(static_cast<long long>(kCrc32Mu),
                                     static_cast<long long>(kCrc32Poly));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), pmu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), pmu, 0x00);
  x0 = _mm_xor_si128(t, x0);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x0, 4)));
}

inline bool crc32_has_clmul() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return has;
}

#endif  // COE_CRC32_CLMUL

}  // namespace detail

/// CRC of `len` raw bytes. Pass a previous result as `seed` to checksum a
/// buffer in chunks (crc32(b, n) == crc32(b+k, n-k, crc32(b, k))).
inline std::uint32_t crc32(const void* data, std::size_t len,
                           std::uint32_t seed = 0) {
#ifdef COE_CRC32_CLMUL
  if (len >= 64 && detail::crc32_has_clmul()) {
    const auto* p = static_cast<const unsigned char*>(data);
    const std::size_t whole = len & ~std::size_t{15};
    const std::uint32_t c = detail::crc32_clmul(p, whole, ~seed);
    return detail::crc32_table(p + whole, len - whole, ~c);
  }
#endif
  return detail::crc32_table(data, len, seed);
}

/// CRC over a double array's bit patterns (the checkpoint-blob case).
inline std::uint32_t crc32(std::span<const double> v,
                           std::uint32_t seed = 0) {
  return crc32(v.data(), v.size() * sizeof(double), seed);
}

}  // namespace coe::core
