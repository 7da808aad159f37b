// obs::FlightRecorder — the always-on blackbox.
//
// A bounded binary ring buffer of protocol events (kinds registered in
// core/event_registry.hpp): txn lifecycle, set_range + coalesce
// decisions, undo push/grow/truncate, SCI bursts, flag set/clear,
// conflict losses, every sim::FailureInjector firing, and each recovery
// step.  Unlike the tracer and metrics it is not opt-in: the cluster owns
// one by value and every engine's events land in it, because the flights
// that crash are never the ones with the instrumentation flag set.
//
// Recording obeys the repo's observability contract: it charges zero
// simulated time and generates zero simulated traffic (it only *reads*
// the sim clock), so recorder-off and recorder-on runs are cost-identical
// bit-for-bit — tests/obs/obs_overhead_test.cpp enforces this for every
// engine.  Overwriting old events on wrap keeps the memory bound fixed;
// `dropped()` counts what fell off the back.
//
// On an anomaly (a thrown errors.hpp error, an mc violation, a failed
// recovery check) call note_anomaly(): it records a fault.anomaly event
// and, when a dump path is configured (PERSEAS_BLACKBOX=<path> via the
// cluster), writes the last-N events as a self-contained binary dump that
// tools/perseas-blackbox.py renders into a human-readable narrative.
// The dump embeds the event-kind table and an interned string table, so
// the renderer needs no access to the source tree (it works on a bare CI
// artifact).  perseas::mc attaches narrative() to every minimized
// counterexample it reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/event_registry.hpp"
#include "core/sync.hpp"
#include "sim/clock.hpp"

namespace perseas::obs {

/// One recorded event: a fixed-size row so the ring is a flat array.
/// Payload words a/b/c are labelled by the kind's registry row; a label
/// starting with '$' marks the word as an interned-string id.
struct FlightEvent {
  std::uint64_t seq = 0;      ///< monotonic, never wraps
  sim::SimTime ts = 0;        ///< simulated ns at record time
  core::EventKind kind{};
  std::uint64_t txn = 0;      ///< 0 = not transaction-scoped
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// `clock` must outlive the recorder; it is only read, never advanced.
  /// `mu` guards the ring and must outlive the recorder too: the cluster
  /// passes its failure injector's, so a failure-point firing records its
  /// event under the one lock it already holds.
  FlightRecorder(const sim::SimClock& clock, sync::Mutex& mu,
                 std::size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends one event (overwriting the oldest when full).  No-op while
  /// disabled.  Charges no simulated time.
  void record(core::EventKind kind, std::uint64_t txn = 0, std::uint64_t a = 0,
              std::uint64_t b = 0, std::uint64_t c = 0) noexcept;

  /// Interns `s` and returns its id for use as a '$'-labelled payload
  /// word.  Repeated strings share one id; the table is part of the dump.
  [[nodiscard]] std::uint64_t intern(std::string_view s);

  /// record(kind, txn, intern(name), b, c) under one lock acquisition, so
  /// that concurrent callers' events land in the order of their calls.
  /// The name is interned even while the recorder is disabled, exactly as
  /// a separate intern() would.
  void record_named(core::EventKind kind, std::uint64_t txn, std::string_view name,
                    std::uint64_t b = 0, std::uint64_t c = 0);
  /// record_named() for a caller that already holds mutex().
  void record_named_locked(core::EventKind kind, std::uint64_t txn, std::string_view name,
                           std::uint64_t b = 0, std::uint64_t c = 0) PERSEAS_REQUIRES(mu_);

  /// The lock guarding the recorder (the one passed at construction).
  [[nodiscard]] sync::Mutex& mutex() const PERSEAS_RETURN_CAPABILITY(mu_) { return mu_; }

  /// The interned string for `id` ("?" when out of range).
  [[nodiscard]] std::string interned(std::uint64_t id) const;

  /// The recorder is on by default; set_enabled(false) freezes it (for
  /// the cost-identity tests — disabling must not change any simulated
  /// observable either).
  void set_enabled(bool on) noexcept;
  [[nodiscard]] bool enabled() const noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Total events ever recorded (monotonic, survives wraps).
  [[nodiscard]] std::uint64_t recorded() const noexcept;
  /// Events lost to ring wraparound: recorded() - size().
  [[nodiscard]] std::uint64_t dropped() const noexcept;
  /// Events currently held: min(recorded(), capacity()).
  [[nodiscard]] std::size_t size() const noexcept;

  /// The last `n` events, oldest-first (all retained events when n == 0
  /// or n >= size()).
  [[nodiscard]] std::vector<FlightEvent> events(std::size_t n = 0) const;

  /// The last `n` events rendered one line each, oldest-first:
  ///   "@<ts>ns txn=<id> <kind.name> <label>=<value> ..."
  /// '$'-labelled words are resolved through the string table.  This is
  /// the timeline perseas::mc embeds in counterexample reports.
  [[nodiscard]] std::vector<std::string> narrative(std::size_t n = 0) const;

  /// Writes the self-contained binary blackbox dump (magic "PSEASFR1",
  /// kind table, string table, retained events).  Parent directories are
  /// NOT created.  Throws std::runtime_error with the errno string when
  /// the file cannot be opened or fully written.
  void dump(const std::string& path) const;

  /// Where note_anomaly() auto-dumps; empty (the default) disables
  /// auto-dumping.  The cluster wires PERSEAS_BLACKBOX=<path> here.
  void set_dump_path(std::string path);
  [[nodiscard]] std::string dump_path() const;

  /// Records a fault.anomaly event carrying `what` and, when a dump path
  /// is set, writes the dump (best-effort: called on throw paths, so dump
  /// failures are swallowed).
  void note_anomaly(std::string_view what) noexcept;

 private:
  void record_locked(core::EventKind kind, std::uint64_t txn, std::uint64_t a,
                     std::uint64_t b, std::uint64_t c) PERSEAS_REQUIRES(mu_);
  [[nodiscard]] std::uint64_t intern_locked(std::string_view s) PERSEAS_REQUIRES(mu_);
  [[nodiscard]] std::vector<FlightEvent> events_locked(std::size_t n) const
      PERSEAS_REQUIRES(mu_);
  void dump_locked(const std::string& path) const PERSEAS_REQUIRES(mu_);

  const sim::SimClock* clock_;
  const std::size_t capacity_;
  sync::Mutex& mu_;
  std::vector<FlightEvent> ring_ PERSEAS_GUARDED_BY(mu_);
  /// Slot the next event overwrites once the ring is full (the oldest).
  std::size_t next_ PERSEAS_GUARDED_BY(mu_) = 0;
  std::uint64_t recorded_ PERSEAS_GUARDED_BY(mu_) = 0;
  bool enabled_ PERSEAS_GUARDED_BY(mu_) = true;
  std::vector<std::string> strings_ PERSEAS_GUARDED_BY(mu_);
  /// Per interned string, the address it was last passed from.  Callers
  /// pass the same literal each time, so a lookup by address skips the
  /// string scan.  Kept as integers: the buffer may be long gone, and the
  /// address is only ever compared.
  std::vector<std::uintptr_t> string_addrs_ PERSEAS_GUARDED_BY(mu_);
  std::string dump_path_ PERSEAS_GUARDED_BY(mu_);
};

/// Renders one event as the narrative line (shared by narrative() and
/// tests; `lookup` resolves '$'-labelled words).
[[nodiscard]] std::string render_flight_event(
    const FlightEvent& e, const std::vector<std::string>& strings);

}  // namespace perseas::obs
