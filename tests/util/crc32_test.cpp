// util::crc32 against its check value and a byte-at-a-time reference loop
// over every short length at every alignment, then one long odd-sized run.
#include "util/crc32.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace nwade::util {
namespace {

/// The textbook reflected CRC-32: one table lookup per byte.
std::uint32_t reference_crc32(std::span<const std::uint8_t> data) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

TEST(Crc32, CheckValueAndEmptyInput) {
  constexpr std::string_view kCheck = "123456789";
  const std::vector<std::uint8_t> check(kCheck.begin(), kCheck.end());
  EXPECT_EQ(crc32(check), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, EveryShortLengthAtEveryOffsetMatchesTheByteLoop) {
  const std::vector<std::uint8_t> buf = random_bytes(16 + 64, 24);
  const std::span<const std::uint8_t> all(buf);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const auto slice = all.subspan(offset, len);
      ASSERT_EQ(crc32(slice), reference_crc32(slice))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, OneMebibytePlusSevenMatchesTheByteLoop) {
  const std::vector<std::uint8_t> buf = random_bytes((1u << 20) + 7, 7);
  EXPECT_EQ(crc32(buf), reference_crc32(buf));
}

}  // namespace
}  // namespace nwade::util
