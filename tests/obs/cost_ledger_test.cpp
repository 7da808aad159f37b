// obs::CostLedger: the conservation law `sum(ledger) == clock delta` must
// hold EXACTLY — under interleaved transactions, coalesced write sets, and
// a full crash + recovery — because the ledger observes every clock
// advance, not the individual charge sites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/perseas.hpp"
#include "netram/cluster.hpp"
#include "netram/remote_memory.hpp"
#include "obs/cost_ledger.hpp"

namespace perseas::obs {
namespace {

constexpr std::uint64_t kRecSize = 4096;

class CostLedgerTest : public ::testing::Test {
 protected:
  CostLedgerTest() : cluster_(sim::HardwareProfile::forth_1997(), 3), server_(cluster_, 1) {}

  core::Perseas& make_db(core::PerseasConfig config = {}) {
    db_.emplace(cluster_, 0, std::vector<netram::RemoteMemoryServer*>{&server_}, config);
    (void)db_->persistent_malloc(kRecSize);
    db_->init_remote_db();
    return *db_;
  }

  /// Attaches the ledger and remembers the clock at attach time; every
  /// test ends by checking conservation against this origin.
  void attach() {
    cluster_.set_ledger(&ledger_);
    attach_time_ = cluster_.clock().now();
  }

  void expect_conservation() {
    const auto delta = cluster_.clock().now() - attach_time_;
    EXPECT_EQ(ledger_.total_ns(), delta)
        << "every charged nanosecond must be attributed";
    // The by-phase aggregation is a regrouping, never a re-measurement.
    sim::SimDuration by_phase_sum = 0;
    for (const auto& [phase, ns] : ledger_.by_phase()) by_phase_sum += ns;
    EXPECT_EQ(by_phase_sum, ledger_.total_ns());
    std::uint64_t row_bytes = 0;
    sim::SimDuration row_ns = 0;
    for (const auto& e : ledger_.entries()) {
      row_ns += e.ns;
      row_bytes += e.bytes;
    }
    EXPECT_EQ(row_ns, ledger_.total_ns());
    EXPECT_EQ(row_bytes, ledger_.total_bytes());
  }

  bool has_phase(const std::string& phase) const {
    for (const auto& e : ledger_.entries()) {
      if (e.key.phase == phase) return true;
    }
    return false;
  }

  netram::Cluster cluster_;
  netram::RemoteMemoryServer server_;
  std::optional<core::Perseas> db_;
  CostLedger ledger_;
  sim::SimTime attach_time_ = 0;
};

TEST_F(CostLedgerTest, ConservationUnderInterleavedTransactions) {
  auto& db = make_db();
  attach();
  auto rec = db.record(0);
  for (int round = 0; round < 5; ++round) {
    auto t1 = db.begin_transaction();
    auto t2 = db.begin_transaction();
    t1.set_range(rec, 0, 256);
    t2.set_range(rec, 1024, 256);
    std::memset(rec.bytes().data(), round, 256);
    std::memset(rec.bytes().data() + 1024, round + 1, 256);
    t1.set_range(rec, 512, 128);
    std::memset(rec.bytes().data() + 512, round, 128);
    t2.commit();
    t1.commit();
  }
  expect_conservation();
  EXPECT_GT(ledger_.total_ns(), 0);
  EXPECT_GT(ledger_.total_bytes(), 0u);
  // Both transactions' ids appear as distinct attribution keys.
  std::vector<std::uint64_t> txns;
  for (const auto& e : ledger_.entries()) {
    if (e.key.txn != 0 &&
        std::find(txns.begin(), txns.end(), e.key.txn) == txns.end()) {
      txns.push_back(e.key.txn);
    }
  }
  EXPECT_GE(txns.size(), 10u);
  for (const char* phase : {"begin", "set_range", "local_undo", "remote_undo",
                            "commit", "flag_set", "propagate", "flag_clear"}) {
    EXPECT_TRUE(has_phase(phase)) << phase;
  }
}

TEST_F(CostLedgerTest, ConservationUnderCoalescedWriteSets) {
  core::PerseasConfig config;
  config.coalesce_ranges = true;
  auto& db = make_db(config);
  attach();
  auto rec = db.record(0);
  for (int round = 0; round < 8; ++round) {
    auto txn = db.begin_transaction();
    // Overlapping declarations: the coalescing layer merges these, so the
    // charges the ledger books differ from the naive sum — conservation
    // must hold regardless.
    txn.set_range(rec, 0, 512);
    std::memset(rec.bytes().data(), round, 512);
    txn.set_range(rec, 256, 512);
    std::memset(rec.bytes().data() + 256, round, 512);
    txn.set_range(rec, 128, 128);
    txn.commit();
  }
  expect_conservation();
  EXPECT_GT(db.stats().ranges_coalesced, 0u);
}

TEST_F(CostLedgerTest, ConservationAcrossCrashAndRecovery) {
  auto& db = make_db();
  attach();
  auto rec = db.record(0);
  {
    auto txn = db.begin_transaction();
    txn.set_range(rec, 0, 64);
    std::memcpy(rec.bytes().data(), "COMMITTED.......", 16);
    txn.commit();
  }
  cluster_.failures().arm("perseas.commit.before_flag_clear", [this] {
    cluster_.crash_node(0, sim::FailureKind::kSoftwareCrash);
    throw sim::NodeCrashed(0, sim::FailureKind::kSoftwareCrash, "armed");
  });
  EXPECT_THROW(
      {
        auto txn = db.begin_transaction();
        txn.set_range(rec, 0, 64);
        std::memcpy(rec.bytes().data(), "DIRTY...........", 16);
        txn.commit();
      },
      sim::NodeCrashed);
  cluster_.restart_node(0);
  auto recovered = core::Perseas::recover(cluster_, 0, {&server_});
  EXPECT_TRUE(recovered.recovery_report().ran);
  expect_conservation();
  // Recovery work is booked under its own (txn=0) phase.
  EXPECT_TRUE(has_phase("recover"));
}

TEST_F(CostLedgerTest, ToJsonCarriesRowsAndTotals) {
  auto& db = make_db();
  attach();
  auto rec = db.record(0);
  auto txn = db.begin_transaction();
  txn.set_range(rec, 0, 128);
  std::memset(rec.bytes().data(), 1, 128);
  txn.commit();
  expect_conservation();
  const std::string json = ledger_.to_json().dump();
  EXPECT_NE(json.find("\"rows\":"), std::string::npos);
  EXPECT_NE(json.find("\"by_phase\":"), std::string::npos);
  EXPECT_NE(json.find("\"total_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"remote_undo\""), std::string::npos);
}

// Regression: SimClock::reset() used to leave the ledger attached with its
// pre-reset rows, so `sum(ledger) == clock delta` silently broke for every
// measurement taken after the reset.  The clock now tells its observer to
// open a new epoch.
TEST(CostLedgerReset, ConservationHoldsAcrossClockReset) {
  sim::SimClock clock;
  CostLedger ledger;
  clock.set_observer(&ledger);

  ledger.push_scope(CostKey{1, "warmup", "test", "-"});
  clock.advance(100);
  ledger.pop_scope();
  EXPECT_EQ(ledger.total_ns(), 100);

  clock.reset();
  EXPECT_EQ(ledger.total_ns(), 0) << "pre-reset books belong to a dead epoch";
  EXPECT_EQ(clock.observer(), &ledger);

  ledger.push_scope(CostKey{2, "measured", "test", "-"});
  clock.advance(40);
  clock.advance(2);
  ledger.pop_scope();
  // Conservation against the new epoch, exactly.
  EXPECT_EQ(ledger.total_ns(), clock.now());
  ASSERT_EQ(ledger.entries().size(), 1u);
  EXPECT_EQ(ledger.entries()[0].key.phase, "measured");
}

// A scope survives the reset when its RAII guard is still live: charges
// after the reset book into the (fresh) row of the same key.
TEST(CostLedgerReset, LiveScopeKeepsAttributingAfterReset) {
  sim::SimClock clock;
  CostLedger ledger;
  clock.set_observer(&ledger);
  ScopedCost scope(&ledger, 7, "phase", "test", "-");
  clock.advance(10);
  clock.reset();
  clock.advance(5);
  EXPECT_EQ(ledger.total_ns(), 5);
  ASSERT_EQ(ledger.entries().size(), 1u);
  EXPECT_EQ(ledger.entries()[0].key.txn, 7u);
  EXPECT_EQ(ledger.entries()[0].ns, 5);
}

// The scope stacks are per worker (keyed by sim::current_worker_id()): a
// charge made behind a ThreadClock front books to the scope that worker
// pushed, not to the main thread's.
TEST(CostLedgerWorkers, ScopesAreKeyedByWorker) {
  sim::SimClock clock;
  CostLedger ledger;
  clock.set_observer(&ledger);

  ledger.push_scope(CostKey{1, "main", "test", "-"});  // worker 0's stack
  clock.advance(3);
  {
    sim::ThreadClock tc(clock, 7);  // this thread now reports worker 7
    clock.advance(10);              // worker 7 has no scope: root row
    ledger.push_scope(CostKey{2, "worker", "test", "-"});
    clock.advance(5);
    ledger.pop_scope();
  }
  clock.advance(4);  // worker 0 again: back to "main"
  ledger.pop_scope();

  sim::SimDuration main_ns = 0;
  sim::SimDuration worker_ns = 0;
  sim::SimDuration root_ns = 0;
  for (const auto& e : ledger.entries()) {
    if (e.key.phase == "main") main_ns = e.ns;
    if (e.key.phase == "worker") worker_ns = e.ns;
    if (e.key.phase == "unattributed") root_ns = e.ns;
  }
  EXPECT_EQ(main_ns, 7);
  EXPECT_EQ(worker_ns, 5);
  EXPECT_EQ(root_ns, 10);
  EXPECT_EQ(ledger.total_ns(), clock.now()) << "conservation across workers";
}

// Concurrent attribution: racing workers, each inside its own scope, book
// exactly their own charges — per-row totals and the conservation law are
// exact whatever the interleaving.
TEST(CostLedgerWorkers, ConcurrentChargesLandInTheChargingThreadsScope) {
  sim::SimClock clock;
  CostLedger ledger;
  clock.set_observer(&ledger);
  constexpr int kThreads = 4;
  constexpr int kCharges = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&clock, &ledger, t] {
      sim::ThreadClock tc(clock, static_cast<std::uint32_t>(t) + 1);
      ScopedCost scope(&ledger, static_cast<std::uint64_t>(t) + 1,
                       "w" + std::to_string(t), "test", "-");
      for (int i = 0; i < kCharges; ++i) {
        clock.advance(t + 1);  // worker t charges (t+1) ns per op
        if (i % 50 == 49) tc.merge();
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int t = 0; t < kThreads; ++t) {
    // Appended, not `"w" + std::to_string(t)`: g++ 12's -Wrestrict
    // misfires on that form at -O3.
    std::string phase = "w";
    phase += std::to_string(t);
    sim::SimDuration ns = 0;
    for (const auto& e : ledger.entries()) {
      if (e.key.phase == phase) ns += e.ns;
    }
    EXPECT_EQ(ns, static_cast<sim::SimDuration>(t + 1) * kCharges)
        << "worker " << t << " row must hold exactly its own charges";
  }
  EXPECT_EQ(ledger.total_ns(), clock.now());
}

TEST_F(CostLedgerTest, DetachStopsAttribution) {
  auto& db = make_db();
  attach();
  auto rec = db.record(0);
  {
    auto txn = db.begin_transaction();
    txn.set_range(rec, 0, 64);
    std::memset(rec.bytes().data(), 1, 64);
    txn.commit();
  }
  const auto attributed = ledger_.total_ns();
  const auto detach_delta = cluster_.clock().now() - attach_time_;
  EXPECT_EQ(attributed, detach_delta);
  cluster_.set_ledger(nullptr);
  {
    auto txn = db.begin_transaction();
    txn.set_range(rec, 0, 64);
    std::memset(rec.bytes().data(), 2, 64);
    txn.commit();
  }
  EXPECT_EQ(ledger_.total_ns(), attributed) << "detached ledger must not move";
}

}  // namespace
}  // namespace perseas::obs
