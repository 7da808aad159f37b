// CRC-32C (Castagnoli), for integrity-checking log entries.
//
// The remote undo log is the single structure recovery depends on while a
// commit is in flight; a checksum per entry lets recovery distinguish the
// clean end of the log (stale bytes with a wrong magic) from actual
// corruption of an entry it needs.
//
// crc32c() uses the CPU's CRC32C instruction where the host has one (x86-64
// SSE4.2, detected once at run time) and the byte-at-a-time table below
// otherwise.  Both compute the same polynomial with the same bit order, so
// every checksum is identical whichever path ran.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace perseas::sim {

namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32cTable = make_crc32c_table();

/// The table path: the fallback, and the reference the hardware path is
/// tested against.
[[nodiscard]] std::uint32_t crc32c_table(std::span<const std::byte> data,
                                         std::uint32_t seed) noexcept;

#if defined(__x86_64__)
/// True when the host CPU has SSE4.2's crc32 instruction.
[[nodiscard]] bool crc32c_hardware_supported() noexcept;

/// The SSE4.2 path; call only when crc32c_hardware_supported().
[[nodiscard]] std::uint32_t crc32c_hardware(std::span<const std::byte> data,
                                            std::uint32_t seed) noexcept;
#endif

}  // namespace detail

/// Incremental CRC-32C; pass the previous return value as `seed` to chain
/// buffers.  Final value for one-shot use is just the return value.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::byte> data,
                                   std::uint32_t seed = 0xffffffffu) noexcept;

/// One-shot convenience producing the conventional finalized value.
inline std::uint32_t crc32c_final(std::span<const std::byte> data) {
  return crc32c(data) ^ 0xffffffffu;
}

}  // namespace perseas::sim
