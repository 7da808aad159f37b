#include "netram/node.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>

namespace perseas::netram {
namespace {

TEST(Node, ConstructionState) {
  Node n(2, "node-2", 4096, 1);
  EXPECT_EQ(n.id(), 2u);
  EXPECT_EQ(n.name(), "node-2");
  EXPECT_EQ(n.power_supply(), 1u);
  EXPECT_FALSE(n.crashed());
  EXPECT_EQ(n.crash_epoch(), 0u);
  EXPECT_EQ(n.arena_bytes(), 4096u);
}

TEST(Node, MemoryStartsZeroed) {
  Node n(0, "n", 256, 0);
  auto span = n.mem(0, 256);
  for (const std::byte b : span) EXPECT_EQ(b, std::byte{0});
}

TEST(Node, MemBoundsChecked) {
  Node n(0, "n", 256, 0);
  EXPECT_NO_THROW((void)n.mem(0, 256));
  EXPECT_NO_THROW((void)n.mem(255, 1));
  EXPECT_THROW((void)n.mem(0, 257), std::out_of_range);
  EXPECT_THROW((void)n.mem(256, 1), std::out_of_range);
  EXPECT_THROW((void)n.mem(~0ULL, 2), std::out_of_range);  // overflow guard
}

TEST(Node, CrashWipesMemoryWithGarbage) {
  Node n(0, "n", 64, 0);
  auto span = n.mem(0, 8);
  std::memset(span.data(), 0x42, 8);
  n.crash(sim::FailureKind::kSoftwareCrash);
  EXPECT_TRUE(n.crashed());
  EXPECT_EQ(n.crash_epoch(), 1u);
  EXPECT_EQ(n.last_failure(), sim::FailureKind::kSoftwareCrash);
  // Contents are garbage, not the old value and not zero.
  EXPECT_EQ(n.mem(0, 1)[0], std::byte{0xDB});
}

TEST(Node, RestartZeroesMemoryAndResetsAllocator) {
  Node n(0, "n", 256, 0);
  const auto off = n.allocator().allocate(64);
  ASSERT_TRUE(off);
  n.crash(sim::FailureKind::kPowerOutage);
  n.restart();
  EXPECT_FALSE(n.crashed());
  EXPECT_EQ(n.mem(0, 1)[0], std::byte{0});
  EXPECT_EQ(n.allocator().bytes_in_use(), 0u);
  // The epoch keeps counting across restarts so stale services notice.
  EXPECT_EQ(n.crash_epoch(), 1u);
  n.crash(sim::FailureKind::kHardwareFault);
  EXPECT_EQ(n.crash_epoch(), 2u);
}

// The arena keeps its modelled capacity but host memory is touched only up
// to the furthest byte mem() has handed out; the cases below pin that every
// byte a caller can observe is the same as with a fully materialised arena.

bool all_bytes_are(std::span<const std::byte> span, std::byte want) {
  return std::all_of(span.begin(), span.end(), [want](std::byte b) { return b == want; });
}

TEST(Node, NothingIsTouchedUntilMemHandsItOut) {
  Node n(0, "n", 64ull << 20, 0);
  EXPECT_EQ(n.arena_bytes(), 64ull << 20);
  EXPECT_EQ(n.touched_bytes(), 0u);
  ASSERT_TRUE(n.allocator().allocate(4096));  // allocating touches nothing
  EXPECT_EQ(n.touched_bytes(), 0u);
  (void)n.mem(100, 28);
  EXPECT_EQ(n.touched_bytes(), 128u);
  (void)n.mem(0, 8);  // below the mark: unmoved
  EXPECT_EQ(n.touched_bytes(), 128u);
}

TEST(Node, SpanHeldAcrossCrashReadsDeadBytes) {
  Node n(0, "n", 4096, 0);
  auto span = n.mem(64, 32);
  std::memset(span.data(), 0x42, span.size());
  n.crash(sim::FailureKind::kPowerOutage);
  EXPECT_TRUE(all_bytes_are(span, std::byte{0xDB}));
  n.restart();
  EXPECT_TRUE(all_bytes_are(span, std::byte{0}));
}

TEST(Node, FirstTouchPastTheMarkAfterCrashReadsDeadBytes) {
  Node n(0, "n", 4096, 0);
  std::memset(n.mem(0, 64).data(), 0x42, 64);
  n.crash(sim::FailureKind::kSoftwareCrash);
  EXPECT_TRUE(all_bytes_are(n.mem(1024, 64), std::byte{0xDB}));
  // Everything up to the new mark reads as crashed DRAM, old and new.
  EXPECT_TRUE(all_bytes_are(n.mem(0, 1088), std::byte{0xDB}));
  EXPECT_EQ(n.touched_bytes(), 1088u);
}

TEST(Node, FirstTouchPastTheMarkAfterRestartReadsZeros) {
  Node n(0, "n", 4096, 0);
  std::memset(n.mem(0, 64).data(), 0x42, 64);
  n.crash(sim::FailureKind::kSoftwareCrash);
  n.restart();
  EXPECT_TRUE(all_bytes_are(n.mem(2048, 64), std::byte{0}));
  EXPECT_TRUE(all_bytes_are(n.mem(0, 4096), std::byte{0}));
}

TEST(Node, OutOfRangeMemThrowsAndLeavesTheMarkUnmoved) {
  Node n(0, "n", 256, 0);
  (void)n.mem(0, 8);
  EXPECT_THROW((void)n.mem(0, 257), std::out_of_range);
  EXPECT_THROW((void)n.mem(200, 57), std::out_of_range);
  EXPECT_THROW((void)n.mem(~0ULL, 2), std::out_of_range);
  EXPECT_EQ(n.touched_bytes(), 8u);
}

TEST(Node, ConstMemFollowsTheSameRules) {
  Node n(0, "n", 256, 0);
  const Node& view = n;
  EXPECT_TRUE(all_bytes_are(view.mem(0, 16), std::byte{0}));
  EXPECT_EQ(view.touched_bytes(), 16u);
  n.crash(sim::FailureKind::kHardwareFault);
  EXPECT_TRUE(all_bytes_are(view.mem(0, 64), std::byte{0xDB}));
  EXPECT_EQ(view.touched_bytes(), 64u);
  EXPECT_THROW((void)view.mem(0, 257), std::out_of_range);
  EXPECT_EQ(view.touched_bytes(), 64u);
  n.restart();
  EXPECT_TRUE(all_bytes_are(view.mem(32, 224), std::byte{0}));
  EXPECT_EQ(view.touched_bytes(), 256u);
}

TEST(Node, ZeroByteArena) {
  Node n(0, "n", 0, 0);
  EXPECT_EQ(n.arena_bytes(), 0u);
  EXPECT_TRUE(n.mem(0, 0).empty());
  EXPECT_THROW((void)n.mem(0, 1), std::out_of_range);
  n.crash(sim::FailureKind::kSoftwareCrash);
  n.restart();
  EXPECT_EQ(n.touched_bytes(), 0u);
  EXPECT_FALSE(n.allocator().allocate(1));
}

TEST(Node, HangStateIsJustATimestamp) {
  Node n(0, "n", 64, 0);
  n.hang_until(12345);
  EXPECT_EQ(n.hang_until(), 12345);
  n.restart();
  EXPECT_EQ(n.hang_until(), 0);
}

}  // namespace
}  // namespace perseas::netram
