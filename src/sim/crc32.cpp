#include "sim/crc32.hpp"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace perseas::sim {
namespace detail {

std::uint32_t crc32c_table(std::span<const std::byte> data, std::uint32_t seed) noexcept {
  std::uint32_t crc = seed;
  for (const std::byte b : data) {
    crc = (crc >> 8) ^ kCrc32cTable[(crc ^ static_cast<std::uint8_t>(b)) & 0xffu];
  }
  return crc;
}

#if defined(__x86_64__)
bool crc32c_hardware_supported() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") != 0;
}

// Eight bytes per instruction, then the tail byte by byte.  The instruction
// updates the same reflected CRC the table does, one step per byte, without
// pre- or post-inversion, so chaining and seeds carry over unchanged.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hardware(
    std::span<const std::byte> data, std::uint32_t seed) noexcept {
  const std::byte* p = data.data();
  std::size_t n = data.size();
  std::uint64_t crc = seed;
  for (; n >= sizeof(std::uint64_t); n -= sizeof(std::uint64_t), p += sizeof(std::uint64_t)) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; n > 0; --n, ++p) crc32 = _mm_crc32_u8(crc32, static_cast<std::uint8_t>(*p));
  return crc32;
}
#endif

}  // namespace detail

std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed) noexcept {
#if defined(__x86_64__)
  static const bool hardware = detail::crc32c_hardware_supported();
  if (hardware) return detail::crc32c_hardware(data, seed);
#endif
  return detail::crc32c_table(data, seed);
}

}  // namespace perseas::sim
