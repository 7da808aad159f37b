#include "netram/cluster.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string_view>
#include <thread>
#include <vector>

#include "core/event_registry.hpp"

namespace perseas::netram {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  sim::HardwareProfile profile_ = sim::HardwareProfile::forth_1997();
};

std::vector<std::byte> bytes_of(const char* s) {
  std::vector<std::byte> v(std::strlen(s));
  std::memcpy(v.data(), s, v.size());
  return v;
}

TEST_F(ClusterTest, DefaultsGiveEachNodeItsOwnSupply) {
  Cluster c(profile_, 3);
  EXPECT_EQ(c.node_count(), 3u);
  EXPECT_EQ(c.power_supply_count(), 3u);
  EXPECT_NE(c.node(0).power_supply(), c.node(1).power_supply());
}

TEST_F(ClusterTest, SharedSupplyConfig) {
  ClusterConfig cfg;
  cfg.node_count = 3;
  cfg.per_node_power_supplies = false;
  Cluster c(profile_, cfg);
  EXPECT_EQ(c.power_supply_count(), 1u);
  EXPECT_EQ(c.node(0).power_supply(), c.node(2).power_supply());
}

TEST_F(ClusterTest, ZeroNodesRejected) {
  ClusterConfig cfg;
  cfg.node_count = 0;
  EXPECT_THROW(Cluster(profile_, cfg), std::invalid_argument);
}

TEST_F(ClusterTest, RemoteWriteMovesBytesAndAdvancesClock) {
  Cluster c(profile_, 2);
  const auto data = bytes_of("hello");
  const auto before = c.clock().now();
  c.remote_write(0, 1, 128, data);
  EXPECT_GT(c.clock().now(), before);
  auto dst = c.node(1).mem(128, 5);
  EXPECT_EQ(std::memcmp(dst.data(), "hello", 5), 0);
  EXPECT_EQ(c.stats().remote_writes, 1u);
  EXPECT_EQ(c.stats().remote_write_bytes, 5u);
}

TEST_F(ClusterTest, RemoteReadPullsBytes) {
  Cluster c(profile_, 2);
  auto src = c.node(1).mem(64, 3);
  std::memcpy(src.data(), "abc", 3);
  std::vector<std::byte> out(3);
  c.remote_read(0, 1, 64, out);
  EXPECT_EQ(std::memcmp(out.data(), "abc", 3), 0);
  EXPECT_EQ(c.stats().remote_reads, 1u);
}

TEST_F(ClusterTest, WriteToCrashedNodeThrows) {
  Cluster c(profile_, 2);
  c.crash_node(1, sim::FailureKind::kSoftwareCrash);
  const auto data = bytes_of("x");
  EXPECT_THROW(c.remote_write(0, 1, 0, data), sim::NodeCrashed);
  EXPECT_THROW(c.control_rpc(0, 1), sim::NodeCrashed);
}

TEST_F(ClusterTest, WriteFromCrashedNodeThrows) {
  Cluster c(profile_, 2);
  c.crash_node(0, sim::FailureKind::kPowerOutage);
  const auto data = bytes_of("x");
  try {
    c.remote_write(0, 1, 0, data);
    FAIL() << "expected NodeCrashed";
  } catch (const sim::NodeCrashed& e) {
    EXPECT_EQ(e.node_id(), 0u);
    EXPECT_EQ(e.kind(), sim::FailureKind::kPowerOutage);
  }
}

TEST_F(ClusterTest, PowerSupplyFailureCrashesAllAttachedNodes) {
  ClusterConfig cfg;
  cfg.node_count = 3;
  cfg.per_node_power_supplies = false;
  Cluster c(profile_, cfg);
  c.fail_power_supply(0);
  EXPECT_TRUE(c.node(0).crashed());
  EXPECT_TRUE(c.node(1).crashed());
  EXPECT_TRUE(c.node(2).crashed());
  EXPECT_EQ(c.node(0).last_failure(), sim::FailureKind::kPowerOutage);
}

TEST_F(ClusterTest, IndependentSuppliesIsolateFailures) {
  Cluster c(profile_, 2);  // per-node supplies
  c.fail_power_supply(c.node(0).power_supply());
  EXPECT_TRUE(c.node(0).crashed());
  EXPECT_FALSE(c.node(1).crashed());
}

TEST_F(ClusterTest, RestartRequiresPower) {
  Cluster c(profile_, 2);
  const auto supply = c.node(0).power_supply();
  c.fail_power_supply(supply);
  EXPECT_THROW(c.restart_node(0), std::logic_error);
  c.restore_power_supply(supply);
  EXPECT_NO_THROW(c.restart_node(0));
  EXPECT_FALSE(c.node(0).crashed());
}

TEST_F(ClusterTest, HangDelaysButDoesNotFail) {
  Cluster c(profile_, 2);
  auto before = c.node(1).mem(0, 4);
  std::memcpy(before.data(), "keep", 4);
  c.hang_node(1, sim::ms(50));
  const auto t0 = c.clock().now();
  std::vector<std::byte> out(4);
  c.remote_read(0, 1, 0, out);  // stalls until the hang ends, then works
  EXPECT_GE(c.clock().now() - t0, sim::ms(50));
  EXPECT_EQ(std::memcmp(out.data(), "keep", 4), 0);
}

TEST_F(ClusterTest, OptimizedWritesSendOnlyFullPackets) {
  Cluster c(profile_, 2);
  const std::vector<std::byte> data(100);
  c.remote_write(0, 1, 4, data, StreamHint::kNewBurst, /*optimized=*/true);
  EXPECT_EQ(c.stats().partial_packets, 0u);
  EXPECT_GT(c.stats().full_packets, 0u);
}

TEST_F(ClusterTest, SmallWritesBypassTheAlignedPathEvenWhenOptimized) {
  Cluster c(profile_, 2);
  const std::vector<std::byte> data(8);
  c.remote_write(0, 1, 4, data, StreamHint::kNewBurst, /*optimized=*/true);
  EXPECT_GT(c.stats().partial_packets, 0u);
}

TEST_F(ClusterTest, LocalMemcpyChargesByBandwidth) {
  Cluster c(profile_, 1);
  const auto t0 = c.clock().now();
  c.charge_local_memcpy(0, 75);  // 75 bytes at 75 MB/s = 1 us + fixed
  const auto cost = c.clock().now() - t0;
  EXPECT_EQ(cost, sim::us(1.0) + profile_.memory.memcpy_fixed);
}

TEST_F(ClusterTest, ChargeCpuRequiresLiveNode) {
  Cluster c(profile_, 1);
  c.charge_cpu(0, sim::us(5));
  c.crash_node(0);
  EXPECT_THROW(c.charge_cpu(0, sim::us(5)), sim::NodeCrashed);
}

TEST_F(ClusterTest, StatsResetWorks) {
  Cluster c(profile_, 2);
  c.control_rpc(0, 1);
  EXPECT_EQ(c.stats().control_rpcs, 1u);
  c.reset_stats();
  EXPECT_EQ(c.stats().control_rpcs, 0u);
}

// Crash and restart cost what the workload touched, not the modelled 64 MB:
// a hundred cycles over a paper-sized two-node cluster stay small in host
// memory while the data path keeps its crash semantics.
TEST_F(ClusterTest, CrashRestartCyclesTouchOnlyWhatWasHandedOut) {
  ClusterConfig cfg;
  cfg.node_count = 2;
  cfg.arena_bytes_per_node = 64ull << 20;
  Cluster c(profile_, cfg);
  const auto data = bytes_of("persistent?");
  std::vector<std::byte> out(data.size());
  for (int cycle = 0; cycle < 100; ++cycle) {
    const auto off = c.node(1).allocator().allocate(4096);
    ASSERT_TRUE(off);
    c.remote_write(0, 1, *off, data);
    c.remote_read(0, 1, *off, out);
    ASSERT_EQ(out, data);
    c.crash_node(1, sim::FailureKind::kPowerOutage);
    ASSERT_EQ(c.node(1).mem(*off, 1)[0], std::byte{0xDB});
    c.restart_node(1);
    c.remote_read(0, 1, *off, out);
    ASSERT_EQ(out, std::vector<std::byte>(data.size()));
  }
  for (NodeId id = 0; id < 2; ++id) {
    EXPECT_EQ(c.node(id).arena_bytes(), 64ull << 20);
    EXPECT_LE(c.node(id).touched_bytes(), 4096u);
  }
}

// The cluster's flight recorder sees every injector firing in hit order,
// even when several threads notify the same points at once: the recorder
// call runs under the injector's lock, so no thread can record hit n+1
// before another has recorded hit n.
TEST_F(ClusterTest, ConcurrentFailurePointsAreRecordedInHitOrder) {
  Cluster c(profile_, 2);
  constexpr std::string_view kPoints[2] = {"test.concurrent.first", "test.concurrent.second"};
  constexpr int kThreads = 4;
  constexpr int kRounds = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, &kPoints] {
      for (int i = 0; i < kRounds; ++i) {
        for (const auto point : kPoints) c.failures().notify(point);
      }
    });
  }
  for (auto& w : workers) w.join();

  // Interning again finds the ids the firings were recorded under: one
  // per point, in first-seen order, and no other id on any firing.
  obs::FlightRecorder& flight = c.flight();
  const std::uint64_t ids[2] = {flight.intern(kPoints[0]), flight.intern(kPoints[1])};
  EXPECT_NE(ids[0], ids[1]);
  EXPECT_LT(ids[0], 2u);
  EXPECT_LT(ids[1], 2u);
  const auto events = flight.events();
  for (int p = 0; p < 2; ++p) {
    const std::uint64_t total = c.failures().hits(kPoints[p]);
    ASSERT_EQ(total, static_cast<std::uint64_t>(kThreads) * kRounds);
    std::uint64_t last = 0;
    std::size_t seen = 0;
    for (const obs::FlightEvent& e : events) {
      if (e.kind != core::EventKind::kFailurePoint) continue;
      ASSERT_TRUE(e.a == ids[0] || e.a == ids[1]) << "unknown intern id " << e.a;
      if (e.a != ids[p]) continue;
      EXPECT_GT(e.b, last) << kPoints[p] << ": hit " << e.b << " recorded after " << last;
      last = e.b;
      ++seen;
    }
    ASSERT_GT(seen, 0u) << kPoints[p];
    EXPECT_EQ(last, total) << kPoints[p];
  }
}

}  // namespace
}  // namespace perseas::netram
