// Phase accounting of the PERSEAS protocol.
//
// Every protocol phase is booked in up to three places at once: the cost
// ledger (per txn/phase/layer/channel), the PerseasStats time_* slot, and
// the TxnObserver::on_phase report that feeds the tracer.  Two tests pin
// that bookkeeping down:
//
//   * a characterization test logs every on_phase tuple, plus the
//     PerseasStats phase slots right after each report, over a fixed
//     2-mirror script (eager and lazy undo, coalescing on and off, a
//     fully covered set_range, a read-only commit, injected crashes, the
//     model checker's seeded skipped flag clear) and compares the log
//     with an embedded golden sequence;
//   * an agreement test runs a concurrency-control mix (a wait-die wait,
//     an OCC validation failure) with a ledger and a tracer installed and
//     checks that all three accounts hold the same nanoseconds per phase.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/observer_mux.hpp"
#include "core/perseas.hpp"
#include "netram/cluster.hpp"
#include "netram/remote_memory.hpp"
#include "obs/cost_ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perseas::core {
namespace {

/// Logs each on_phase call as one line: the full tuple, then the phase
/// slots of PerseasStats as they stand when the report arrives.
class PhaseRecorder final : public TxnObserver {
 public:
  PhaseRecorder(std::vector<std::string>& log, const PerseasStats& stats)
      : log_(&log), stats_(&stats) {}

  void on_begin(std::uint64_t, std::span<const TxnRecordView>) override {}
  void on_set_range(std::uint64_t, std::uint32_t, std::uint64_t, std::uint64_t) override {}
  void on_undo_push(std::uint64_t, std::span<const std::byte>,
                    std::span<const std::byte>) override {}
  void on_commit(std::uint64_t, std::span<const TxnRecordView>) override {}
  void on_abort(std::uint64_t, std::span<const TxnRecordView>) override {}

  void on_phase(std::uint64_t txn_id, TxnPhase phase, sim::SimTime start,
                sim::SimDuration duration, std::uint64_t bytes, std::uint32_t mirror) override {
    log_->push_back("txn=" + std::to_string(txn_id) + " " + std::string(to_string(phase)) +
                    " start=" + std::to_string(start) + " dur=" + std::to_string(duration) +
                    " bytes=" + std::to_string(bytes) + " mirror=" + std::to_string(mirror) +
                    " | " + stats_line(*stats_));
  }

  [[nodiscard]] const TxnObserverStats& stats() const noexcept override { return zero_; }

  static std::string stats_line(const PerseasStats& s) {
    return "lu=" + std::to_string(s.time_local_undo) + " ru=" + std::to_string(s.time_remote_undo) +
           " pr=" + std::to_string(s.time_propagation) + " cf=" +
           std::to_string(s.time_commit_flags) + " cw=" + std::to_string(s.time_cc_wait) +
           " va=" + std::to_string(s.time_validate);
  }

 private:
  std::vector<std::string>* log_;
  const PerseasStats* stats_;
  TxnObserverStats zero_;
};

struct Script {
  const char* name;
  bool eager = true;
  bool coalesce = true;
  const char* crash_at = nullptr;  ///< failure point whose first hit throws
  bool skip_flag_clear = false;    ///< the model checker's seeded bug
};

/// Runs the fixed script on a fresh 2-mirror cluster and returns the log.
std::vector<std::string> run_script(const Script& s) {
  netram::Cluster cluster(sim::HardwareProfile::forth_1997(), 3);
  netram::RemoteMemoryServer m1(cluster, 1);
  netram::RemoteMemoryServer m2(cluster, 2);
  obs::MetricsRegistry metrics;
  PerseasConfig config;
  config.eager_remote_undo = s.eager;
  config.coalesce_ranges = s.coalesce;
  // Validator plus tracer: the instance installs a TxnObserverMux, which
  // the recorder then joins.
  config.validate_writes = true;
  config.metrics = &metrics;
  if (s.skip_flag_clear) setenv("PERSEAS_MC_SEED_BUG", "skip-flag-clear", 1);
  Perseas db(cluster, 0, {&m1, &m2}, config);
  if (s.skip_flag_clear) unsetenv("PERSEAS_MC_SEED_BUG");

  std::vector<std::string> log{std::string("-- ") + s.name};
  auto* mux = dynamic_cast<TxnObserverMux*>(db.txn_observer());
  EXPECT_NE(mux, nullptr);
  if (mux == nullptr) return log;
  mux->add(std::make_unique<PhaseRecorder>(log, db.stats()));

  auto rec = db.persistent_malloc(256);
  db.init_remote_db();
  const auto fill = [&rec](std::uint64_t offset, std::uint64_t size, int value) {
    std::memset(rec.bytes().data() + offset, value, size);
  };

  {  // fresh, partially overlapping and fully covered declarations
    auto txn = db.begin_transaction();
    txn.set_range(rec, 0, 32);
    txn.set_range(rec, 16, 32);
    txn.set_range(rec, 8, 16);
    fill(0, 48, 0x11);
    txn.commit();
  }
  {  // read-only
    auto txn = db.begin_transaction();
    txn.commit();
  }
  {  // aborted: abort is not an observer phase
    auto txn = db.begin_transaction();
    txn.set_range(rec, 100, 8);
    fill(100, 8, 0x22);
    txn.abort();
  }
  if (s.crash_at != nullptr) {
    cluster.failures().arm(s.crash_at, [] {
      throw sim::NodeCrashed(0, sim::FailureKind::kSoftwareCrash, "armed");
    });
    auto txn = db.begin_transaction();
    EXPECT_THROW(
        {
          txn.set_range(rec, 64, 16);
          fill(64, 16, 0x33);
          txn.set_range(rec, 128, 16);
          fill(128, 16, 0x33);
          txn.commit();
        },
        sim::NodeCrashed);
  }
  log.push_back("end | " + PhaseRecorder::stats_line(db.stats()));
  return log;
}

TEST(PerseasPhaseTest, OnPhaseTuplesAndStatsMatchGolden) {
  const Script scripts[] = {
      {"eager coalesce=on", true, true},
      {"eager coalesce=off", true, false},
      {"lazy coalesce=on", false, true},
      {"lazy coalesce=off", false, false},
      {"eager crash at after_remote_undo", true, true, "perseas.set_range.after_remote_undo"},
      {"lazy crash at after_remote_undo", false, true, "perseas.set_range.after_remote_undo"},
      {"eager crash at after_range_copy", true, true, "perseas.commit.after_range_copy"},
      {"eager seeded skip-flag-clear", true, true, nullptr, true},
  };
  std::vector<std::string> log;
  for (const Script& s : scripts) {
    const auto part = run_script(s);
    log.insert(log.end(), part.begin(), part.end());
  }

  const std::vector<std::string> kGolden = {
      "-- eager coalesce=on",
      "txn=1 local_undo start=837943 dur=507 bytes=32 mirror=0 | lu=507 ru=0 pr=0 cf=0 cw=0 va=0",
      "txn=1 remote_undo start=838450 dur=5800 bytes=144 mirror=0 | lu=507 ru=5800 pr=0 cf=0 cw=0 va=0",
      "txn=1 local_undo start=844450 dur=293 bytes=16 mirror=0 | lu=800 ru=5800 pr=0 cf=0 cw=0 va=0",
      "txn=1 remote_undo start=844743 dur=4400 bytes=112 mirror=0 | lu=800 ru=10200 pr=0 cf=0 cw=0 va=0",
      "txn=1 flag_set start=849643 dur=2500 bytes=16 mirror=0 | lu=800 ru=10200 pr=0 cf=2500 cw=0 va=0",
      "txn=1 propagate start=852143 dur=1500 bytes=48 mirror=0 | lu=800 ru=10200 pr=1500 cf=2500 cw=0 va=0",
      "txn=1 flag_clear start=853643 dur=700 bytes=16 mirror=0 | lu=800 ru=10200 pr=1500 cf=3200 cw=0 va=0",
      "txn=1 flag_set start=854343 dur=2500 bytes=16 mirror=1 | lu=800 ru=10200 pr=1500 cf=5700 cw=0 va=0",
      "txn=1 propagate start=856843 dur=1500 bytes=48 mirror=1 | lu=800 ru=10200 pr=3000 cf=5700 cw=0 va=0",
      "txn=1 flag_clear start=858343 dur=700 bytes=16 mirror=1 | lu=800 ru=10200 pr=3000 cf=6400 cw=0 va=0",
      "txn=3 local_undo start=860143 dur=187 bytes=8 mirror=0 | lu=987 ru=10200 pr=3000 cf=6400 cw=0 va=0",
      "txn=3 remote_undo start=860330 dur=4400 bytes=96 mirror=0 | lu=987 ru=14600 pr=3000 cf=6400 cw=0 va=0",
      "end | lu=987 ru=14600 pr=3000 cf=6400 cw=0 va=0",
      "-- eager coalesce=off",
      "txn=1 local_undo start=837943 dur=507 bytes=32 mirror=0 | lu=507 ru=0 pr=0 cf=0 cw=0 va=0",
      "txn=1 remote_undo start=838450 dur=5800 bytes=144 mirror=0 | lu=507 ru=5800 pr=0 cf=0 cw=0 va=0",
      "txn=1 local_undo start=844450 dur=507 bytes=32 mirror=0 | lu=1014 ru=5800 pr=0 cf=0 cw=0 va=0",
      "txn=1 remote_undo start=844957 dur=7400 bytes=144 mirror=0 | lu=1014 ru=13200 pr=0 cf=0 cw=0 va=0",
      "txn=1 local_undo start=852557 dur=293 bytes=16 mirror=0 | lu=1307 ru=13200 pr=0 cf=0 cw=0 va=0",
      "txn=1 remote_undo start=852850 dur=7400 bytes=112 mirror=0 | lu=1307 ru=20600 pr=0 cf=0 cw=0 va=0",
      "txn=1 flag_set start=860550 dur=2500 bytes=16 mirror=0 | lu=1307 ru=20600 pr=0 cf=2500 cw=0 va=0",
      "txn=1 propagate start=863050 dur=3300 bytes=80 mirror=0 | lu=1307 ru=20600 pr=3300 cf=2500 cw=0 va=0",
      "txn=1 flag_clear start=866350 dur=700 bytes=16 mirror=0 | lu=1307 ru=20600 pr=3300 cf=3200 cw=0 va=0",
      "txn=1 flag_set start=867050 dur=2500 bytes=16 mirror=1 | lu=1307 ru=20600 pr=3300 cf=5700 cw=0 va=0",
      "txn=1 propagate start=869550 dur=3300 bytes=80 mirror=1 | lu=1307 ru=20600 pr=6600 cf=5700 cw=0 va=0",
      "txn=1 flag_clear start=872850 dur=700 bytes=16 mirror=1 | lu=1307 ru=20600 pr=6600 cf=6400 cw=0 va=0",
      "txn=3 local_undo start=874650 dur=187 bytes=8 mirror=0 | lu=1494 ru=20600 pr=6600 cf=6400 cw=0 va=0",
      "txn=3 remote_undo start=874837 dur=4400 bytes=96 mirror=0 | lu=1494 ru=25000 pr=6600 cf=6400 cw=0 va=0",
      "end | lu=1494 ru=25000 pr=6600 cf=6400 cw=0 va=0",
      "-- lazy coalesce=on",
      "txn=1 local_undo start=837943 dur=507 bytes=32 mirror=0 | lu=507 ru=0 pr=0 cf=0 cw=0 va=0",
      "txn=1 local_undo start=838650 dur=293 bytes=16 mirror=0 | lu=800 ru=0 pr=0 cf=0 cw=0 va=0",
      "txn=1 remote_undo start=839443 dur=8800 bytes=256 mirror=0 | lu=800 ru=8800 pr=0 cf=0 cw=0 va=0",
      "txn=1 flag_set start=848243 dur=2500 bytes=16 mirror=0 | lu=800 ru=8800 pr=0 cf=2500 cw=0 va=0",
      "txn=1 propagate start=850743 dur=1500 bytes=48 mirror=0 | lu=800 ru=8800 pr=1500 cf=2500 cw=0 va=0",
      "txn=1 flag_clear start=852243 dur=700 bytes=16 mirror=0 | lu=800 ru=8800 pr=1500 cf=3200 cw=0 va=0",
      "txn=1 flag_set start=852943 dur=2500 bytes=16 mirror=1 | lu=800 ru=8800 pr=1500 cf=5700 cw=0 va=0",
      "txn=1 propagate start=855443 dur=1500 bytes=48 mirror=1 | lu=800 ru=8800 pr=3000 cf=5700 cw=0 va=0",
      "txn=1 flag_clear start=856943 dur=700 bytes=16 mirror=1 | lu=800 ru=8800 pr=3000 cf=6400 cw=0 va=0",
      "txn=2 remote_undo start=858243 dur=0 bytes=0 mirror=0 | lu=800 ru=8800 pr=3000 cf=6400 cw=0 va=0",
      "txn=3 local_undo start=858743 dur=187 bytes=8 mirror=0 | lu=987 ru=8800 pr=3000 cf=6400 cw=0 va=0",
      "end | lu=987 ru=8800 pr=3000 cf=6400 cw=0 va=0",
      "-- lazy coalesce=off",
      "txn=1 local_undo start=837943 dur=507 bytes=32 mirror=0 | lu=507 ru=0 pr=0 cf=0 cw=0 va=0",
      "txn=1 local_undo start=838650 dur=507 bytes=32 mirror=0 | lu=1014 ru=0 pr=0 cf=0 cw=0 va=0",
      "txn=1 local_undo start=839357 dur=293 bytes=16 mirror=0 | lu=1307 ru=0 pr=0 cf=0 cw=0 va=0",
      "txn=1 remote_undo start=839950 dur=14200 bytes=400 mirror=0 | lu=1307 ru=14200 pr=0 cf=0 cw=0 va=0",
      "txn=1 flag_set start=854150 dur=2500 bytes=16 mirror=0 | lu=1307 ru=14200 pr=0 cf=2500 cw=0 va=0",
      "txn=1 propagate start=856650 dur=3300 bytes=80 mirror=0 | lu=1307 ru=14200 pr=3300 cf=2500 cw=0 va=0",
      "txn=1 flag_clear start=859950 dur=700 bytes=16 mirror=0 | lu=1307 ru=14200 pr=3300 cf=3200 cw=0 va=0",
      "txn=1 flag_set start=860650 dur=2500 bytes=16 mirror=1 | lu=1307 ru=14200 pr=3300 cf=5700 cw=0 va=0",
      "txn=1 propagate start=863150 dur=3300 bytes=80 mirror=1 | lu=1307 ru=14200 pr=6600 cf=5700 cw=0 va=0",
      "txn=1 flag_clear start=866450 dur=700 bytes=16 mirror=1 | lu=1307 ru=14200 pr=6600 cf=6400 cw=0 va=0",
      "txn=2 remote_undo start=867750 dur=0 bytes=0 mirror=0 | lu=1307 ru=14200 pr=6600 cf=6400 cw=0 va=0",
      "txn=3 local_undo start=868250 dur=187 bytes=8 mirror=0 | lu=1494 ru=14200 pr=6600 cf=6400 cw=0 va=0",
      "end | lu=1494 ru=14200 pr=6600 cf=6400 cw=0 va=0",
      "-- eager crash at after_remote_undo",
      "txn=1 local_undo start=837943 dur=507 bytes=32 mirror=0 | lu=507 ru=0 pr=0 cf=0 cw=0 va=0",
      "txn=1 remote_undo start=838450 dur=5800 bytes=144 mirror=0 | lu=507 ru=5800 pr=0 cf=0 cw=0 va=0",
      "txn=1 local_undo start=844450 dur=293 bytes=16 mirror=0 | lu=800 ru=5800 pr=0 cf=0 cw=0 va=0",
      "txn=1 remote_undo start=844743 dur=4400 bytes=112 mirror=0 | lu=800 ru=10200 pr=0 cf=0 cw=0 va=0",
      "txn=1 flag_set start=849643 dur=2500 bytes=16 mirror=0 | lu=800 ru=10200 pr=0 cf=2500 cw=0 va=0",
      "txn=1 propagate start=852143 dur=1500 bytes=48 mirror=0 | lu=800 ru=10200 pr=1500 cf=2500 cw=0 va=0",
      "txn=1 flag_clear start=853643 dur=700 bytes=16 mirror=0 | lu=800 ru=10200 pr=1500 cf=3200 cw=0 va=0",
      "txn=1 flag_set start=854343 dur=2500 bytes=16 mirror=1 | lu=800 ru=10200 pr=1500 cf=5700 cw=0 va=0",
      "txn=1 propagate start=856843 dur=1500 bytes=48 mirror=1 | lu=800 ru=10200 pr=3000 cf=5700 cw=0 va=0",
      "txn=1 flag_clear start=858343 dur=700 bytes=16 mirror=1 | lu=800 ru=10200 pr=3000 cf=6400 cw=0 va=0",
      "txn=3 local_undo start=860143 dur=187 bytes=8 mirror=0 | lu=987 ru=10200 pr=3000 cf=6400 cw=0 va=0",
      "txn=3 remote_undo start=860330 dur=4400 bytes=96 mirror=0 | lu=987 ru=14600 pr=3000 cf=6400 cw=0 va=0",
      "txn=4 local_undo start=865617 dur=293 bytes=16 mirror=0 | lu=1280 ru=14600 pr=3000 cf=6400 cw=0 va=0",
      "end | lu=1280 ru=14600 pr=3000 cf=6400 cw=0 va=0",
      "-- lazy crash at after_remote_undo",
      "txn=1 local_undo start=837943 dur=507 bytes=32 mirror=0 | lu=507 ru=0 pr=0 cf=0 cw=0 va=0",
      "txn=1 local_undo start=838650 dur=293 bytes=16 mirror=0 | lu=800 ru=0 pr=0 cf=0 cw=0 va=0",
      "txn=1 remote_undo start=839443 dur=8800 bytes=256 mirror=0 | lu=800 ru=8800 pr=0 cf=0 cw=0 va=0",
      "txn=1 flag_set start=848243 dur=2500 bytes=16 mirror=0 | lu=800 ru=8800 pr=0 cf=2500 cw=0 va=0",
      "txn=1 propagate start=850743 dur=1500 bytes=48 mirror=0 | lu=800 ru=8800 pr=1500 cf=2500 cw=0 va=0",
      "txn=1 flag_clear start=852243 dur=700 bytes=16 mirror=0 | lu=800 ru=8800 pr=1500 cf=3200 cw=0 va=0",
      "txn=1 flag_set start=852943 dur=2500 bytes=16 mirror=1 | lu=800 ru=8800 pr=1500 cf=5700 cw=0 va=0",
      "txn=1 propagate start=855443 dur=1500 bytes=48 mirror=1 | lu=800 ru=8800 pr=3000 cf=5700 cw=0 va=0",
      "txn=1 flag_clear start=856943 dur=700 bytes=16 mirror=1 | lu=800 ru=8800 pr=3000 cf=6400 cw=0 va=0",
      "txn=2 remote_undo start=858243 dur=0 bytes=0 mirror=0 | lu=800 ru=8800 pr=3000 cf=6400 cw=0 va=0",
      "txn=3 local_undo start=858743 dur=187 bytes=8 mirror=0 | lu=987 ru=8800 pr=3000 cf=6400 cw=0 va=0",
      "txn=4 local_undo start=859817 dur=293 bytes=16 mirror=0 | lu=1280 ru=8800 pr=3000 cf=6400 cw=0 va=0",
      "txn=4 local_undo start=860310 dur=293 bytes=16 mirror=0 | lu=1573 ru=8800 pr=3000 cf=6400 cw=0 va=0",
      "end | lu=1573 ru=8800 pr=3000 cf=6400 cw=0 va=0",
      "-- eager crash at after_range_copy",
      "txn=1 local_undo start=837943 dur=507 bytes=32 mirror=0 | lu=507 ru=0 pr=0 cf=0 cw=0 va=0",
      "txn=1 remote_undo start=838450 dur=5800 bytes=144 mirror=0 | lu=507 ru=5800 pr=0 cf=0 cw=0 va=0",
      "txn=1 local_undo start=844450 dur=293 bytes=16 mirror=0 | lu=800 ru=5800 pr=0 cf=0 cw=0 va=0",
      "txn=1 remote_undo start=844743 dur=4400 bytes=112 mirror=0 | lu=800 ru=10200 pr=0 cf=0 cw=0 va=0",
      "txn=1 flag_set start=849643 dur=2500 bytes=16 mirror=0 | lu=800 ru=10200 pr=0 cf=2500 cw=0 va=0",
      "txn=1 propagate start=852143 dur=1500 bytes=48 mirror=0 | lu=800 ru=10200 pr=1500 cf=2500 cw=0 va=0",
      "txn=1 flag_clear start=853643 dur=700 bytes=16 mirror=0 | lu=800 ru=10200 pr=1500 cf=3200 cw=0 va=0",
      "txn=1 flag_set start=854343 dur=2500 bytes=16 mirror=1 | lu=800 ru=10200 pr=1500 cf=5700 cw=0 va=0",
      "txn=1 propagate start=856843 dur=1500 bytes=48 mirror=1 | lu=800 ru=10200 pr=3000 cf=5700 cw=0 va=0",
      "txn=1 flag_clear start=858343 dur=700 bytes=16 mirror=1 | lu=800 ru=10200 pr=3000 cf=6400 cw=0 va=0",
      "txn=3 local_undo start=860143 dur=187 bytes=8 mirror=0 | lu=987 ru=10200 pr=3000 cf=6400 cw=0 va=0",
      "txn=3 remote_undo start=860330 dur=4400 bytes=96 mirror=0 | lu=987 ru=14600 pr=3000 cf=6400 cw=0 va=0",
      "txn=4 local_undo start=865617 dur=293 bytes=16 mirror=0 | lu=1280 ru=14600 pr=3000 cf=6400 cw=0 va=0",
      "txn=4 remote_undo start=865910 dur=4400 bytes=112 mirror=0 | lu=1280 ru=19000 pr=3000 cf=6400 cw=0 va=0",
      "txn=4 local_undo start=870510 dur=293 bytes=16 mirror=0 | lu=1573 ru=19000 pr=3000 cf=6400 cw=0 va=0",
      "txn=4 remote_undo start=870803 dur=7400 bytes=112 mirror=0 | lu=1573 ru=26400 pr=3000 cf=6400 cw=0 va=0",
      "txn=4 flag_set start=878503 dur=2500 bytes=16 mirror=0 | lu=1573 ru=26400 pr=3000 cf=8900 cw=0 va=0",
      "end | lu=1573 ru=26400 pr=3000 cf=8900 cw=0 va=0",
      "-- eager seeded skip-flag-clear",
      "txn=1 local_undo start=837943 dur=507 bytes=32 mirror=0 | lu=507 ru=0 pr=0 cf=0 cw=0 va=0",
      "txn=1 remote_undo start=838450 dur=5800 bytes=144 mirror=0 | lu=507 ru=5800 pr=0 cf=0 cw=0 va=0",
      "txn=1 local_undo start=844450 dur=293 bytes=16 mirror=0 | lu=800 ru=5800 pr=0 cf=0 cw=0 va=0",
      "txn=1 remote_undo start=844743 dur=4400 bytes=112 mirror=0 | lu=800 ru=10200 pr=0 cf=0 cw=0 va=0",
      "txn=1 flag_set start=849643 dur=2500 bytes=16 mirror=0 | lu=800 ru=10200 pr=0 cf=2500 cw=0 va=0",
      "txn=1 propagate start=852143 dur=1500 bytes=48 mirror=0 | lu=800 ru=10200 pr=1500 cf=2500 cw=0 va=0",
      "txn=1 flag_clear start=853643 dur=0 bytes=16 mirror=0 | lu=800 ru=10200 pr=1500 cf=2500 cw=0 va=0",
      "txn=1 flag_set start=853643 dur=2500 bytes=16 mirror=1 | lu=800 ru=10200 pr=1500 cf=5000 cw=0 va=0",
      "txn=1 propagate start=856143 dur=1500 bytes=48 mirror=1 | lu=800 ru=10200 pr=3000 cf=5000 cw=0 va=0",
      "txn=1 flag_clear start=857643 dur=0 bytes=16 mirror=1 | lu=800 ru=10200 pr=3000 cf=5000 cw=0 va=0",
      "txn=3 local_undo start=858743 dur=187 bytes=8 mirror=0 | lu=987 ru=10200 pr=3000 cf=5000 cw=0 va=0",
      "txn=3 remote_undo start=858930 dur=4400 bytes=96 mirror=0 | lu=987 ru=14600 pr=3000 cf=5000 cw=0 va=0",
      "end | lu=987 ru=14600 pr=3000 cf=5000 cw=0 va=0",
  };
  EXPECT_EQ(log, kGolden);
}

// ---------------------------------------------------------------------------
// The three accounts agree

/// Sum of the ledger's by_phase ns for `phase` (0 when never charged).
sim::SimDuration ledger_ns(const obs::CostLedger& ledger, std::string_view phase) {
  sim::SimDuration ns = 0;
  for (const auto& [p, d] : ledger.by_phase()) {
    if (p == phase) ns += d;
  }
  return ns;
}

/// Sum of the durations of the tracer's "txn.<phase>" spans.
sim::SimDuration traced_ns(const obs::TraceRecorder& trace, std::string_view phase) {
  const std::string name = "txn." + std::string(phase);
  sim::SimDuration ns = 0;
  for (const auto& e : trace.events()) {
    if (e.ph == 'X' && e.name == name) ns += e.dur;
  }
  return ns;
}

void expect_accounts_agree(const PerseasStats& s, const obs::CostLedger& ledger,
                           const obs::TraceRecorder& trace) {
  EXPECT_EQ(s.time_local_undo, ledger_ns(ledger, "local_undo"));
  EXPECT_EQ(s.time_local_undo, traced_ns(trace, "local_undo"));
  EXPECT_EQ(s.time_remote_undo, ledger_ns(ledger, "remote_undo"));
  EXPECT_EQ(s.time_remote_undo, traced_ns(trace, "remote_undo"));
  EXPECT_EQ(s.time_propagation, ledger_ns(ledger, "propagate"));
  EXPECT_EQ(s.time_propagation, traced_ns(trace, "propagate"));
  EXPECT_EQ(s.time_commit_flags, ledger_ns(ledger, "flag_set") + ledger_ns(ledger, "flag_clear"));
  EXPECT_EQ(s.time_commit_flags, traced_ns(trace, "flag_set") + traced_ns(trace, "flag_clear"));
  EXPECT_EQ(s.time_cc_wait, ledger_ns(ledger, "cc_wait"));
  EXPECT_EQ(s.time_validate, ledger_ns(ledger, "validate"));
  // Not vacuous: the mix exercised every copy of the protocol.
  EXPECT_GT(s.time_local_undo, 0);
  EXPECT_GT(s.time_remote_undo, 0);
  EXPECT_GT(s.time_propagation, 0);
  EXPECT_GT(s.time_commit_flags, 0);
}

class PhaseAccountsTest : public ::testing::Test {
 protected:
  PhaseAccountsTest() : cluster_(sim::HardwareProfile::forth_1997(), 3), m1_(cluster_, 1),
                        m2_(cluster_, 2) {
    cluster_.set_ledger(&ledger_);
  }
  ~PhaseAccountsTest() override { cluster_.set_ledger(nullptr); }

  Perseas& make_db(CcPolicyKind policy, bool eager) {
    PerseasConfig config;
    config.cc_policy = policy;
    config.eager_remote_undo = eager;
    config.trace = &trace_;
    db_ = std::make_unique<Perseas>(cluster_, 0,
                                    std::vector<netram::RemoteMemoryServer*>{&m1_, &m2_}, config);
    rec_ = db_->persistent_malloc(256);
    db_->init_remote_db();
    return *db_;
  }

  void fill(std::uint64_t offset, std::uint64_t size, int value) {
    std::memset(rec_.bytes().data() + offset, value, size);
  }

  obs::CostLedger ledger_;
  obs::TraceRecorder trace_;
  netram::Cluster cluster_;
  netram::RemoteMemoryServer m1_;
  netram::RemoteMemoryServer m2_;
  std::unique_ptr<Perseas> db_;
  RecordHandle rec_;
};

TEST_F(PhaseAccountsTest, WaitDieWaitKeepsStatsLedgerAndTracerEqual) {
  auto& db = make_db(CcPolicyKind::kWaitDie, /*eager=*/true);
  auto a = db.begin_transaction();  // older
  auto b = db.begin_transaction();  // younger
  b.set_range(rec_, 0, 64);
  EXPECT_THROW(a.set_range(rec_, 16, 8), TxnConflict);  // waits, then retries
  fill(0, 64, 0x11);
  b.commit();
  a.set_range(rec_, 16, 8);
  a.set_range(rec_, 16, 4);  // fully covered: nothing copied
  fill(16, 8, 0x22);
  a.commit();
  {
    auto c = db.begin_transaction();
    c.set_range(rec_, 200, 16);
    fill(200, 16, 0x33);
    c.abort();
  }
  EXPECT_EQ(db.stats().cc_waits, 1u);
  EXPECT_GT(db.stats().time_cc_wait, 0);
  expect_accounts_agree(db.stats(), ledger_, trace_);
}

TEST_F(PhaseAccountsTest, ValidateFailureKeepsStatsLedgerAndTracerEqual) {
  auto& db = make_db(CcPolicyKind::kValidateAtCommit, /*eager=*/false);
  auto a = db.begin_transaction();
  a.read_range(rec_, 0, 64);
  {
    auto b = db.begin_transaction();
    b.set_range(rec_, 0, 64);
    fill(0, 64, 0x44);
    b.commit();
  }
  a.set_range(rec_, 128, 16);
  fill(128, 16, 0x55);
  EXPECT_THROW(a.commit(), TxnConflict);  // the read went stale
  a.abort();
  {
    auto retry = db.begin_transaction();
    retry.read_range(rec_, 0, 64);
    retry.set_range(rec_, 128, 16);
    fill(128, 16, 0x66);
    retry.commit();
  }
  {
    auto read_only = db.begin_transaction();
    read_only.read_range(rec_, 0, 16);
    read_only.commit();
  }
  EXPECT_EQ(db.stats().txns_validation_failed, 1u);
  expect_accounts_agree(db.stats(), ledger_, trace_);
}

}  // namespace
}  // namespace perseas::core
