// Write-set coalescing (PerseasConfig::coalesce_ranges): duplicate and
// overlapping set_range declarations charge no second copy, commit
// propagates each record's merged dirty union exactly once in gathered SCI
// bursts, the byte counters match the cluster's measured traffic exactly,
// and recovery handles both the coalesced (disjoint) and the legacy
// (possibly overlapping) undo-log formats.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "check/txn_validator.hpp"
#include "core/perseas.hpp"

namespace perseas::core {
namespace {

constexpr std::uint64_t kRecSize = 512;

class PerseasCoalesceTest : public ::testing::Test {
 protected:
  PerseasCoalesceTest() : cluster_(sim::HardwareProfile::forth_1997(), 3), server_(cluster_, 1) {}

  /// Perseas is immovable, so the fixture hosts the instance and hands out
  /// a reference (one live database per test).
  Perseas& make_db(PerseasConfig config = {}) {
    db_.emplace(cluster_, 0, std::vector<netram::RemoteMemoryServer*>{&server_}, config);
    db_->persistent_malloc(kRecSize);
    db_->persistent_malloc(kRecSize);
    db_->init_remote_db();
    return *db_;
  }

  /// The overlap-heavy transaction used throughout: five declarations over
  /// two records with one duplicate, one fully-covered sub-range, and one
  /// partial overlap; every declared byte is written.
  static void run_overlap_txn(Perseas& db, std::byte fill) {
    auto a = db.record(0);
    auto b = db.record(1);
    auto txn = db.begin_transaction();
    txn.set_range(a, 0, 64);
    std::memset(a.bytes().data(), int(fill), 64);
    txn.set_range(a, 32, 64);  // partial overlap: [64, 96) is fresh
    std::memset(a.bytes().data() + 32, int(fill) ^ 1, 64);
    txn.set_range(a, 16, 16);  // fully covered: nothing fresh
    std::memset(a.bytes().data() + 16, int(fill) ^ 2, 16);
    txn.set_range(b, 8, 40);
    std::memset(b.bytes().data() + 8, int(fill) ^ 3, 40);
    txn.set_range(b, 8, 40);  // exact duplicate
    std::memset(b.bytes().data() + 8, int(fill) ^ 4, 40);
    txn.commit();
  }

  netram::Cluster cluster_;
  netram::RemoteMemoryServer server_;
  std::optional<Perseas> db_;
};

TEST_F(PerseasCoalesceTest, FullyCoveredSetRangeChargesNothing) {
  auto& db = make_db();
  auto rec = db.record(0);
  auto txn = db.begin_transaction();
  txn.set_range(rec, 0, 64);
  cluster_.reset_stats();
  txn.set_range(rec, 0, 64);   // duplicate
  txn.set_range(rec, 16, 16);  // strict sub-range
  // No local undo copy, no remote undo entry: the covered bytes were
  // already logged while pristine.
  EXPECT_EQ(cluster_.stats().remote_writes, 0u);
  EXPECT_EQ(cluster_.stats().local_memcpys, 0u);
  EXPECT_EQ(db.stats().bytes_undo_local, 64u);
  EXPECT_EQ(db.stats().bytes_undo_remote, undo_entry_bytes(64));
  EXPECT_EQ(db.stats().set_ranges, 3u);
  EXPECT_EQ(db.stats().ranges_coalesced, 2u);
  EXPECT_EQ(db.stats().bytes_dedup_undo, 64u + 16u);
  txn.abort();
}

TEST_F(PerseasCoalesceTest, PartialOverlapLogsOnlyUncoveredBytes) {
  PerseasConfig config;
  config.validate_writes = true;
  auto& db = make_db(config);
  auto rec = db.record(0);
  {
    auto txn = db.begin_transaction();
    txn.set_range(rec, 0, 32);
    std::memset(rec.bytes().data(), 0x5A, 32);
    txn.set_range(rec, 16, 48);  // only [32, 64) is fresh
    std::memset(rec.bytes().data() + 16, 0x66, 48);
    EXPECT_EQ(db.stats().bytes_undo_local, 32u + 32u);
    EXPECT_EQ(db.stats().bytes_dedup_undo, 16u);
    EXPECT_EQ(db.stats().bytes_undo_remote, undo_entry_bytes(32) * 2);
    txn.abort();
  }
  // The two disjoint before-images restore every byte (the validator
  // re-checks this against its begin snapshot).
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(rec.bytes()[i], std::byte{0}) << "offset " << i;
  }
}

TEST_F(PerseasCoalesceTest, AdjacentRangesPropagateAsOneGatheredBurst) {
  auto& db = make_db();
  auto rec = db.record(0);
  auto txn = db.begin_transaction();
  txn.set_range(rec, 0, 16);
  std::memset(rec.bytes().data(), 0x11, 16);
  txn.set_range(rec, 16, 16);
  std::memset(rec.bytes().data() + 16, 0x22, 16);
  cluster_.reset_stats();
  txn.commit();
  // Commit issues: flag set, ONE gathered store for the two adjacent
  // ranges, flag clear.  The historical path needed two propagation stores.
  EXPECT_EQ(cluster_.stats().remote_writes, 3u);
  EXPECT_EQ(db.stats().propagate_writes, 1u);
  EXPECT_EQ(db.stats().bytes_propagated, 32u);
}

// Satellite: the byte counters must equal the bytes actually moved over the
// cluster, exactly, for an overlap-heavy transaction with coalescing on.
TEST_F(PerseasCoalesceTest, ByteCountersMatchClusterTrafficExactly) {
  auto& db = make_db();
  cluster_.reset_stats();
  run_overlap_txn(db, std::byte{0x40});
  const auto& net = cluster_.stats();
  const auto& s = db.stats();
  // Every remote byte of the commit is either an undo entry, a propagated
  // range, or one of the two 16-byte flag stores (set + clear) per mirror.
  const std::uint64_t flag_bytes = 2u * 16u * db.mirror_count();
  EXPECT_EQ(net.remote_write_bytes, s.bytes_undo_remote + s.bytes_propagated + flag_bytes);
  // Local memcpy traffic: the application's memsets are not charged to the
  // cluster by the test, so the only local copies are the before-images.
  EXPECT_EQ(net.local_memcpy_bytes, s.bytes_undo_local);
  // The union of record 0 is [0, 96), of record 1 is [8, 48): 136 bytes
  // propagated; 224 declared across the five set_ranges.
  EXPECT_EQ(s.bytes_propagated, 136u);
  EXPECT_EQ(s.bytes_undo_local, 136u);
  EXPECT_EQ(s.bytes_dedup_undo, 224u - 136u);
  EXPECT_EQ(s.bytes_dedup_propagated, 224u - 136u);
  EXPECT_EQ(s.ranges_coalesced, 3u);
  EXPECT_EQ(s.bytes_undo_remote,
            undo_entry_bytes(64) + undo_entry_bytes(32) + undo_entry_bytes(40));
}

// Acceptance: for an overlapping workload, coalescing must move strictly
// fewer SCI bytes AND commit in strictly less simulated time than the
// legacy one-entry-per-set_range behaviour.
TEST_F(PerseasCoalesceTest, CoalescingBeatsLegacyOnBytesAndLatency) {
  struct Leg {
    std::uint64_t bytes;
    sim::SimDuration elapsed;
  };
  auto run = [](bool coalesce) {
    netram::Cluster cluster(sim::HardwareProfile::forth_1997(), 2);
    netram::RemoteMemoryServer server(cluster, 1);
    PerseasConfig config;
    config.coalesce_ranges = coalesce;
    Perseas db(cluster, 0, {&server}, config);
    db.persistent_malloc(kRecSize);
    db.persistent_malloc(kRecSize);
    db.init_remote_db();
    cluster.reset_stats();
    const auto t0 = cluster.clock().now();
    for (int i = 0; i < 50; ++i) run_overlap_txn(db, std::byte(i));
    return Leg{cluster.stats().remote_write_bytes, cluster.clock().now() - t0};
  };
  const Leg on = run(true);
  const Leg off = run(false);
  EXPECT_LT(on.bytes, off.bytes);
  EXPECT_LT(on.elapsed, off.elapsed);
}

// Satellite: the undo-log doubling loop must not wrap to zero and spin.
TEST_F(PerseasCoalesceTest, UndoCapacityDoublingGuardsOverflow) {
  EXPECT_EQ(next_undo_capacity(64, 64), 64u);
  EXPECT_EQ(next_undo_capacity(64, 65), 128u);
  EXPECT_EQ(next_undo_capacity(1 << 20, 100), 1u << 20);
  EXPECT_EQ(next_undo_capacity(0, 1), 64u);
  // A requirement no doubling chain can reach: the historical loop
  // multiplied 2^63 by two, wrapped to zero, and never terminated.
  EXPECT_THROW((void)next_undo_capacity(64, (1ull << 63) + 1), OutOfRemoteMemory);
  EXPECT_THROW((void)next_undo_capacity(1ull << 63, ~0ull), OutOfRemoteMemory);
}

// Satellite: the lazy-commit growth path must announce every undo entry at
// the same per-entry protocol point as the no-growth path, with the same
// per-entry observer cross-checks.
TEST_F(PerseasCoalesceTest, LazyGrowthPathFiresPerEntryHooks) {
  PerseasConfig config;
  config.eager_remote_undo = false;
  config.undo_capacity = 64;  // forces growth at commit
  config.validate_writes = true;
  auto& db = make_db(config);
  auto rec = db.record(0);
  const std::uint64_t before = cluster_.failures().hits("perseas.set_range.after_remote_undo");
  {
    auto txn = db.begin_transaction();
    for (std::uint64_t i = 0; i < 3; ++i) {
      txn.set_range(rec, i * 100, 60);
      std::memset(rec.bytes().data() + i * 100, 0x33, 60);
    }
    txn.commit();
  }
  EXPECT_EQ(db.stats().undo_growths, 1u);
  // One hit per entry, not one for the whole grown batch.
  EXPECT_EQ(cluster_.failures().hits("perseas.set_range.after_remote_undo") - before, 3u);
  // And the validator byte-compared each entry against the mirror.
  EXPECT_EQ(db.validator_stats().undo_crosschecks, 3u * db.mirror_count());
}

TEST_F(PerseasCoalesceTest, EnvironmentVariableOverridesConfig) {
  ASSERT_EQ(setenv("PERSEAS_COALESCE", "0", 1), 0);
  PerseasConfig config;
  config.coalesce_ranges = true;
  Perseas db(cluster_, 0, {&server_}, config);
  EXPECT_FALSE(db.config().coalesce_ranges);
  ASSERT_EQ(unsetenv("PERSEAS_COALESCE"), 0);
}

// Satellite: crash-injection matrix.  Crash the primary at EVERY protocol
// point hit during an overlap-heavy coalesced commit — at every repetition
// of each point — recover, and require the database to be byte-for-byte
// the pre-transaction or the post-transaction image, nothing in between.
TEST_F(PerseasCoalesceTest, CrashMatrixOverCoalescedCommitIsAtomic) {
  // Reference run: count how often each protocol point fires inside the
  // doomed transaction's window and capture the pre/post images.
  std::vector<std::vector<std::byte>> pre;
  std::vector<std::vector<std::byte>> post;
  std::map<std::string, std::uint64_t> window;
  {
    netram::Cluster cluster(sim::HardwareProfile::forth_1997(), 3);
    netram::RemoteMemoryServer server(cluster, 1);
    Perseas db(cluster, 0, {&server}, {});
    db.persistent_malloc(kRecSize);
    db.persistent_malloc(kRecSize);
    db.init_remote_db();
    run_overlap_txn(db, std::byte{0x10});  // the committed pre-state
    for (std::uint32_t r = 0; r < 2; ++r) {
      const auto b = db.record(r).bytes();
      pre.emplace_back(b.begin(), b.end());
    }
    std::map<std::string, std::uint64_t> before;
    for (const auto& p : cluster.failures().seen_points()) {
      before[p] = cluster.failures().hits(p);
    }
    run_overlap_txn(db, std::byte{0x80});  // the transaction under test
    for (const auto& p : cluster.failures().seen_points()) {
      const std::uint64_t delta = cluster.failures().hits(p) - before[p];
      if (delta > 0) window[p] = delta;
    }
    for (std::uint32_t r = 0; r < 2; ++r) {
      const auto b = db.record(r).bytes();
      post.emplace_back(b.begin(), b.end());
    }
  }
  ASSERT_GE(window.size(), 5u);  // local undo, remote undo, flag, copy, clear
  ASSERT_GT(window["perseas.commit.after_range_copy"], 1u);  // gathered slices

  for (const auto& [point, repeats] : window) {
    for (std::uint64_t k = 0; k < repeats; ++k) {
      netram::Cluster cluster(sim::HardwareProfile::forth_1997(), 3);
      netram::RemoteMemoryServer server(cluster, 1);
      Perseas db(cluster, 0, {&server}, {});
      db.persistent_malloc(kRecSize);
      db.persistent_malloc(kRecSize);
      db.init_remote_db();
      run_overlap_txn(db, std::byte{0x10});
      cluster.failures().arm(point, k, [&cluster] {
        cluster.crash_node(0, sim::FailureKind::kSoftwareCrash);
        throw sim::NodeCrashed(0, sim::FailureKind::kSoftwareCrash, "matrix");
      });
      EXPECT_THROW(run_overlap_txn(db, std::byte{0x80}), sim::NodeCrashed)
          << point << " hit " << k;
      cluster.restart_node(0);
      auto recovered = Perseas::recover(cluster, 0, {&server});
      // Only a crash at/after the flag-clear commit point may expose the
      // new image (single mirror: its clear IS the commit point).
      const bool committed =
          point == "perseas.commit.after_flag_clear" || point == "perseas.commit.done";
      const auto& expect = committed ? post : pre;
      for (std::uint32_t r = 0; r < 2; ++r) {
        const auto b = recovered.record(r).bytes();
        EXPECT_TRUE(std::memcmp(b.data(), expect[r].data(), b.size()) == 0)
            << "record " << r << " not atomic after crash at " << point << " hit " << k;
      }
    }
  }
}

// Legacy-format logs (coalesce_ranges=false) may contain overlapping
// entries whose before-images must be applied newest-first; recovery still
// restores the exact pre-transaction image.
TEST_F(PerseasCoalesceTest, LegacyOverlappingLogStillRollsBackNewestFirst) {
  PerseasConfig config;
  config.coalesce_ranges = false;
  auto& db = make_db(config);
  auto rec = db.record(0);
  {  // committed pre-state
    auto txn = db.begin_transaction();
    txn.set_range(rec, 0, 64);
    std::memset(rec.bytes().data(), 0x77, 64);
    txn.commit();
  }
  cluster_.failures().arm("perseas.commit.before_flag_clear", [this] {
    cluster_.crash_node(0, sim::FailureKind::kSoftwareCrash);
    throw sim::NodeCrashed(0, sim::FailureKind::kSoftwareCrash, "legacy");
  });
  EXPECT_THROW(
      {
        auto txn = db.begin_transaction();
        // Overlapping entries: the second before-image contains the first
        // range's in-transaction write, so forward application would
        // resurrect 0x88 bytes.
        txn.set_range(rec, 0, 32);
        std::memset(rec.bytes().data(), 0x88, 32);
        txn.set_range(rec, 16, 32);
        std::memset(rec.bytes().data() + 16, 0x99, 32);
        txn.commit();
      },
      sim::NodeCrashed);
  cluster_.restart_node(0);
  auto recovered = Perseas::recover(cluster_, 0, {&server_});
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(recovered.record(0).bytes()[i], std::byte{0x77}) << "offset " << i;
  }
}

// The validator's shared interval-merge (core::merge_range) reports the
// fresh sub-ranges the commit path relies on.
TEST_F(PerseasCoalesceTest, MergeRangeReportsFreshSubRanges) {
  std::vector<ByteRange> ranges;
  std::vector<ByteRange> fresh;
  merge_range(ranges, 10, 10, &fresh);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].offset, 10u);
  EXPECT_EQ(fresh[0].size, 10u);
  merge_range(ranges, 12, 4, &fresh);  // fully inside
  EXPECT_TRUE(fresh.empty());
  merge_range(ranges, 5, 30, &fresh);  // covers [5,10) and [20,35)
  ASSERT_EQ(fresh.size(), 2u);
  EXPECT_EQ(fresh[0].offset, 5u);
  EXPECT_EQ(fresh[0].size, 5u);
  EXPECT_EQ(fresh[1].offset, 20u);
  EXPECT_EQ(fresh[1].size, 15u);
  ASSERT_EQ(ranges.size(), 1u);  // coalesced into [5, 35)
  EXPECT_EQ(ranges[0].offset, 5u);
  EXPECT_EQ(ranges[0].size, 30u);
  EXPECT_TRUE(range_covered(ranges, 5, 30));
  EXPECT_FALSE(range_covered(ranges, 4, 2));
}

}  // namespace
}  // namespace perseas::core
