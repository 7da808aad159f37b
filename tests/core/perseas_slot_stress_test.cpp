// Four OS threads, each owning one PerseasEngine slot, mix set_range,
// read_range, commit and abort over a small hot set of rows under every
// concurrency-control policy.  This is the test of the ownership rules
// the core runs on:
//   - Perseas::mu_ is the only lock in core (UndoLog, MirrorSet and the
//     CC policy keep none of their own);
//   - the engine's slot table has no lock: slot w belongs to thread w;
//   - read_range takes no lock at all and counts in its own context.
// Run under TSan in CI (the analysis workflow's tsan leg names it), where
// a field touched outside its owner's rule is a reported race.
//
// What must hold exactly, every run: the per-thread tallies add up to the
// PerseasStats totals (commits, conflicts, aborts and read_range
// declarations), every claim is released, and the mirror's database
// image equals the local one.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "core/layout.hpp"
#include "core/perseas.hpp"
#include "netram/cluster.hpp"
#include "netram/remote_memory.hpp"
#include "sim/clock.hpp"
#include "sim/random.hpp"
#include "workload/engines.hpp"

namespace perseas {
namespace {

constexpr std::uint32_t kThreads = 4;
constexpr std::uint64_t kRows = 32;
constexpr std::uint64_t kRowBytes = 64;
constexpr std::uint64_t kTxnsPerThread = 300;
constexpr std::uint32_t kOpsPerTxn = 6;

struct Tally {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;     ///< chosen by the worker, not forced by a conflict
  std::uint64_t conflicts = 0;  ///< TxnConflict from set_range or commit
  std::uint64_t reads = 0;      ///< read_range declarations accepted
};

void worker(workload::PerseasEngine& engine, std::uint32_t w, const std::atomic<bool>& go,
            Tally& t) {
  sim::Rng rng(sim::SplitMix64(0x51075 + w).next());
  const std::span<std::byte> db = engine.db();
  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  sim::ThreadClock tc(engine.cluster().clock(), w + 1);
  for (std::uint64_t i = 0; i < kTxnsPerThread; ++i) {
    engine.begin_slot(w);
    try {
      for (std::uint32_t op = 0; op < kOpsPerTxn; ++op) {
        const std::uint64_t offset = rng.below(kRows) * kRowBytes;
        if (rng.chance(0.5)) {
          engine.set_range_slot(w, offset, kRowBytes);
          // The claim covers the row: no other thread touches these bytes.
          std::memset(db.subspan(offset, kRowBytes).data(), static_cast<int>((w * 31 + i) & 0xff),
                      kRowBytes);
        } else {
          engine.read_range_slot(w, offset, kRowBytes);
          ++t.reads;
        }
        if ((op & 1) == 1) std::this_thread::yield();  // let the others overlap
      }
      if (rng.chance(0.2)) {
        engine.abort_slot(w);
        ++t.aborts;
      } else {
        engine.commit_slot(w);
        ++t.commits;
      }
    } catch (const core::TxnConflict&) {
      engine.abort_slot(w);
      ++t.conflicts;
    }
    tc.merge();
  }
}

class PerseasSlotStressTest : public ::testing::TestWithParam<core::CcPolicyKind> {};

TEST_P(PerseasSlotStressTest, TalliesMatchStatsAndMirrorMatchesLocal) {
  netram::Cluster cluster(sim::HardwareProfile::forth_1997(), 2);
  netram::RemoteMemoryServer server(cluster, 1);
  core::PerseasConfig config;
  config.cc_policy = GetParam();
  workload::PerseasEngine engine(cluster, 0, {&server}, kRows * kRowBytes, config);
  ASSERT_GE(engine.max_open_txns(), kThreads);

  std::atomic<bool> go{false};
  std::vector<Tally> tallies(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::uint32_t w = 0; w < kThreads; ++w) {
    threads.emplace_back(worker, std::ref(engine), w, std::cref(go), std::ref(tallies[w]));
  }
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  Tally sum;
  for (const Tally& t : tallies) {
    sum.commits += t.commits;
    sum.aborts += t.aborts;
    sum.conflicts += t.conflicts;
    sum.reads += t.reads;
  }
  ASSERT_EQ(sum.commits + sum.aborts + sum.conflicts, kThreads * kTxnsPerThread);
  EXPECT_GT(sum.commits, 0u);

  const core::Perseas& db = engine.perseas();
  const core::PerseasStats& s = db.stats();
  EXPECT_EQ(s.txns_committed, sum.commits);
  EXPECT_EQ(s.txns_conflicted, sum.conflicts);
  EXPECT_EQ(s.txns_aborted, sum.aborts + sum.conflicts);
  EXPECT_EQ(s.read_ranges, sum.reads);
  EXPECT_EQ(db.open_transactions(), 0u);

  // Every committed row reached the mirror and every aborted one was
  // rolled back locally: the two images agree byte for byte.  Peek at the
  // mirror's arena directly (no simulated traffic).
  netram::RemoteMemoryClient peek(cluster, 0);
  const auto seg = peek.sci_connect_segment(server, core::db_key(0));
  ASSERT_TRUE(seg);
  const std::span<const std::byte> mirror = cluster.node(1).mem(seg->offset, kRows * kRowBytes);
  const std::span<const std::byte> local = engine.db();
  EXPECT_EQ(std::memcmp(mirror.data(), local.data(), local.size()), 0);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PerseasSlotStressTest,
                         ::testing::Values(core::CcPolicyKind::kFirstWriterWins,
                                           core::CcPolicyKind::kWaitDie,
                                           core::CcPolicyKind::kValidateAtCommit),
                         [](const auto& info) {
                           switch (info.param) {
                             case core::CcPolicyKind::kFirstWriterWins: return "fww";
                             case core::CcPolicyKind::kWaitDie: return "wait_die";
                             case core::CcPolicyKind::kValidateAtCommit: return "validate";
                           }
                           return "unknown";
                         });

}  // namespace
}  // namespace perseas
