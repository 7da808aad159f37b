#include "sim/crc32.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace perseas::sim {
namespace {

std::vector<std::byte> bytes_of(const char* s) {
  std::vector<std::byte> v(std::strlen(s));
  std::memcpy(v.data(), s, v.size());
  return v;
}

TEST(Crc32c, KnownVector) {
  // Standard CRC-32C test vector: "123456789" -> 0xE3069283.
  EXPECT_EQ(crc32c_final(bytes_of("123456789")), 0xE3069283u);
}

TEST(Crc32c, EmptyInput) {
  EXPECT_EQ(crc32c_final({}), 0u);
}

TEST(Crc32c, Deterministic) {
  const auto data = bytes_of("perseas");
  EXPECT_EQ(crc32c_final(data), crc32c_final(data));
}

TEST(Crc32c, SensitiveToEveryByte) {
  auto data = bytes_of("a quick brown fox jumps over the lazy dog");
  const auto baseline = crc32c_final(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    auto copy = data;
    copy[i] ^= std::byte{0x01};
    EXPECT_NE(crc32c_final(copy), baseline) << "flip at " << i;
  }
}

TEST(Crc32c, SensitiveToOrder) {
  EXPECT_NE(crc32c_final(bytes_of("ab")), crc32c_final(bytes_of("ba")));
}

TEST(Crc32c, ChainingMatchesOneShot) {
  const auto whole = bytes_of("hello world");
  const auto left = bytes_of("hello ");
  const auto right = bytes_of("world");
  const std::uint32_t chained = crc32c(right, crc32c(left)) ^ 0xffffffffu;
  EXPECT_EQ(chained, crc32c_final(whole));
}

TEST(Crc32c, TablePathKnownVector) {
  EXPECT_EQ(detail::crc32c_table(bytes_of("123456789"), 0xffffffffu) ^ 0xffffffffu,
            0xE3069283u);
}

#if defined(__x86_64__)
// The hardware path must reproduce the table path bit-for-bit: every
// length across the 8-byte word boundary and the byte tail, every start
// alignment, and seeds carried in from a previous chunk.
TEST(Crc32c, HardwarePathMatchesTablePath) {
  if (!detail::crc32c_hardware_supported()) GTEST_SKIP() << "no SSE4.2 crc32 on this CPU";
  std::vector<std::byte> buf(256 + 8);
  std::uint32_t x = 0x12345678u;
  for (auto& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::byte>(x >> 24);
  }
  const std::span<const std::byte> all(buf);
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 256; ++len) {
      const auto data = all.subspan(start, len);
      for (const std::uint32_t seed : {0xffffffffu, 0u, 0xE3069283u}) {
        ASSERT_EQ(detail::crc32c_hardware(data, seed), detail::crc32c_table(data, seed))
            << "start " << start << " len " << len << " seed " << seed;
      }
      // Chained in two pieces, split anywhere.
      const std::size_t cut = len / 3;
      const std::uint32_t hw = detail::crc32c_hardware(
          data.subspan(cut), detail::crc32c_hardware(data.first(cut), 0xffffffffu));
      ASSERT_EQ(hw, detail::crc32c_table(data, 0xffffffffu))
          << "chained, start " << start << " len " << len;
    }
  }
  EXPECT_EQ(detail::crc32c_hardware(bytes_of("123456789"), 0xffffffffu) ^ 0xffffffffu,
            0xE3069283u);
}
#endif

}  // namespace
}  // namespace perseas::sim
