#include "util/crc32.h"

#include <array>
#include <cstddef>

namespace nwade::util {
namespace {

/// Slice-by-16 tables: kTables[0] is the byte-at-a-time table, and
/// kTables[k][b] is kTables[0][b] advanced over k more zero bytes, so
/// sixteen lookups advance the CRC over sixteen input bytes at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// Four bytes as a little-endian word, whatever the host's byte order.
std::uint32_t le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint32_t lookup4(std::size_t table, std::uint32_t w) {
  return kTables[table + 3][w & 0xFFu] ^ kTables[table + 2][(w >> 8) & 0xFFu] ^
         kTables[table + 1][(w >> 16) & 0xFFu] ^ kTables[table][w >> 24];
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 16; p += 16, n -= 16) {
    crc = lookup4(12, le32(p) ^ crc) ^ lookup4(8, le32(p + 4)) ^
          lookup4(4, le32(p + 8)) ^ lookup4(0, le32(p + 12));
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace nwade::util
