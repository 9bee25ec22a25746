#pragma once
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), header-only.
// coe::resil and coe::phoenix use it to fingerprint checkpoint blobs so a
// restore can refuse a corrupt one; it is deliberately the real algorithm
// (not a stand-in hash) so stored checksums are stable across platforms
// and match external crc32 tools byte for byte.
//
// Slicing-by-8: eight 256-entry tables fold eight input bytes per step,
// and a byte-at-a-time loop finishes the tail. Every value must equal the
// byte-at-a-time table loop's (and zlib's crc32) for every input, seed and
// alignment: stored checksums are compared across builds.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

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

}  // namespace detail

/// CRC of `len` raw bytes. Pass a previous result as `seed` to checksum a
/// buffer in chunks (crc32(b, n) == crc32(b+k, n-k, crc32(b, k))).
inline std::uint32_t crc32(const void* data, std::size_t len,
                           std::uint32_t seed = 0) {
  const auto& t = detail::kCrc32Tables;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~seed;
  for (; len >= 8; len -= 8, p += 8) {
    const std::uint64_t w = detail::load_le64(p) ^ c;
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

/// CRC over a double array's bit patterns (the checkpoint-blob case).
inline std::uint32_t crc32(std::span<const double> v,
                           std::uint32_t seed = 0) {
  return crc32(v.data(), v.size() * sizeof(double), seed);
}

}  // namespace coe::core
