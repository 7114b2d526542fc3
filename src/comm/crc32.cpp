#include "src/comm/crc32.hpp"

#include <array>
#include <cstddef>

namespace fedcav::comm {

namespace {

using CrcTable = std::array<std::uint32_t, 256>;

/// Slicing-by-16 tables: kTables[0] is the classic bytewise table, and
/// kTables[k][b] is the CRC of byte b followed by k zero bytes, so the
/// 16 lookups of one block can run independently and be XORed.
constexpr std::array<CrcTable, 16> make_crc_tables() {
  std::array<CrcTable, 16> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

constexpr std::array<CrcTable, 16> kTables = make_crc_tables();

/// Little-endian 32-bit load at any alignment (compiles to one load on
/// little-endian hosts).
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// The four bytes of `word`, fed through tables hi, hi-1, hi-2, hi-3.
inline std::uint32_t slice4(std::uint32_t word, std::size_t hi) {
  return kTables[hi][word & 0xffu] ^ kTables[hi - 1][(word >> 8) & 0xffu] ^
         kTables[hi - 2][(word >> 16) & 0xffu] ^ kTables[hi - 3][word >> 24];
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc, std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 16; n -= 16, p += 16) {
    crc = slice4(load_le32(p) ^ crc, 15) ^ slice4(load_le32(p + 4), 11) ^
          slice4(load_le32(p + 8), 7) ^ slice4(load_le32(p + 12), 3);
  }
  for (; n > 0; --n, ++p) {
    crc = kTables[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

}  // namespace fedcav::comm
