// obs::FlightRecorder: the bounded ring (wraparound and the exact-capacity
// edge), the golden narrative rendering, the interned string table, and the
// binary blackbox dump note_anomaly() auto-writes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/event_registry.hpp"
#include "core/sync.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/clock.hpp"

namespace perseas::obs {
namespace {

using core::EventKind;

TEST(FlightRecorder, GoldenNarrative) {
  sim::SimClock clock;
  sync::Mutex mu;
  FlightRecorder fr(clock, mu);
  fr.record(EventKind::kTxnBegin, 7, 1);
  clock.advance(150);
  const std::uint64_t point = fr.intern("perseas.commit.before_flag_clear");
  fr.record(EventKind::kFailurePoint, 0, point, 3);
  clock.advance(50);
  fr.record(EventKind::kSetRange, 7, 2, 128, 64);
  const std::vector<std::string> expected = {
      "@0ns txn=7 txn.begin open_txns=1",
      "@150ns - fault.point point=perseas.commit.before_flag_clear hits=3",
      "@200ns txn=7 txn.set_range record=2 offset=128 size=64",
  };
  EXPECT_EQ(fr.narrative(), expected);
  // The last-n view keeps oldest-first order.
  EXPECT_EQ(fr.narrative(2), std::vector<std::string>(expected.begin() + 1, expected.end()));
}

TEST(FlightRecorder, ExactCapacityEdgeThenWrap) {
  sim::SimClock clock;
  sync::Mutex mu;
  FlightRecorder fr(clock, mu, 8);
  for (std::uint64_t i = 0; i < 8; ++i) fr.record(EventKind::kTxnBegin, 1, i);
  // Exactly full: nothing dropped yet, all eight retained in order.
  EXPECT_EQ(fr.size(), 8u);
  EXPECT_EQ(fr.recorded(), 8u);
  EXPECT_EQ(fr.dropped(), 0u);
  auto all = fr.events();
  ASSERT_EQ(all.size(), 8u);
  EXPECT_EQ(all.front().a, 0u);
  EXPECT_EQ(all.back().a, 7u);

  // One more overwrites exactly the oldest.
  fr.record(EventKind::kTxnBegin, 1, 8);
  EXPECT_EQ(fr.size(), 8u);
  EXPECT_EQ(fr.dropped(), 1u);
  EXPECT_EQ(fr.events().front().a, 1u);
  EXPECT_EQ(fr.events().back().a, 8u);

  // Deep wrap: only the last `capacity` survive, seq stays monotonic.
  for (std::uint64_t i = 9; i < 100; ++i) fr.record(EventKind::kTxnBegin, 1, i);
  EXPECT_EQ(fr.recorded(), 100u);
  EXPECT_EQ(fr.dropped(), 92u);
  all = fr.events();
  ASSERT_EQ(all.size(), 8u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].a, 92 + i);
    if (i > 0) {
      EXPECT_EQ(all[i].seq, all[i - 1].seq + 1);
    }
  }
}

TEST(FlightRecorder, DisabledRecorderIsFrozen) {
  sim::SimClock clock;
  sync::Mutex mu;
  FlightRecorder fr(clock, mu, 8);
  fr.record(EventKind::kTxnBegin, 1);
  fr.set_enabled(false);
  EXPECT_FALSE(fr.enabled());
  fr.record(EventKind::kTxnCommitted, 1);
  EXPECT_EQ(fr.recorded(), 1u);
  fr.set_enabled(true);
  fr.record(EventKind::kTxnCommitted, 1);
  EXPECT_EQ(fr.recorded(), 2u);
}

TEST(FlightRecorder, InternSharesIds) {
  sim::SimClock clock;
  sync::Mutex mu;
  FlightRecorder fr(clock, mu);
  const auto a = fr.intern("perseas.commit.done");
  const auto b = fr.intern("rvm.force.after_body");
  EXPECT_EQ(fr.intern("perseas.commit.done"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(fr.interned(a), "perseas.commit.done");
  EXPECT_EQ(fr.interned(999999), "?");
}

TEST(FlightRecorder, DumpWritesMagicAndThrowsOnBadPath) {
  sim::SimClock clock;
  sync::Mutex mu;
  FlightRecorder fr(clock, mu);
  fr.record(EventKind::kTxnBegin, 1);
  const std::string path =
      ::testing::TempDir() + "/flight_recorder_test_dump.bin";
  fr.dump(path);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  char magic[8] = {};
  in.read(magic, 8);
  EXPECT_EQ(std::string(magic, 8), "PSEASFR1");
  std::remove(path.c_str());
  // Parent directories are not created; the error carries the path.
  EXPECT_THROW(fr.dump("/nonexistent-perseas-dir/dump.bin"), std::runtime_error);
}

TEST(FlightRecorder, NoteAnomalyRecordsAndAutoDumps) {
  sim::SimClock clock;
  sync::Mutex mu;
  FlightRecorder fr(clock, mu);
  const std::string path =
      ::testing::TempDir() + "/flight_recorder_test_anomaly.bin";
  std::remove(path.c_str());
  fr.set_dump_path(path);
  EXPECT_EQ(fr.dump_path(), path);
  fr.note_anomaly("checksum mismatch in undo entry 3");
  const auto lines = fr.narrative();
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back(),
            "@0ns - fault.anomaly what=checksum mismatch in undo entry 3");
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "note_anomaly must auto-dump to the configured path";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace perseas::obs
