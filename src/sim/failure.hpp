// Failure model: power supplies, crash kinds, and scriptable failure points.
//
// The paper's reliability argument (section 1) distinguishes
//   (a) power outages    — survived because mirrors sit on different supplies,
//   (b) hardware errors  — independent across machines,
//   (c) software errors  — independent across machines,
//   (d) correlated hangs — stall service but lose no data.
// This module lets tests and benches script exactly those events at named
// points inside library operations, so the recovery protocol can be
// exercised at every intermediate state of a commit.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/sync.hpp"

namespace perseas::sim {

/// Why a node went down.
enum class FailureKind : std::uint8_t {
  kPowerOutage,    // loses DRAM contents
  kHardwareFault,  // loses DRAM contents
  kSoftwareCrash,  // loses the process; DRAM exported to others survives only
                   // on *other* machines (no Rio in the baseline OS)
  kHang,           // temporary; loses nothing
};

[[nodiscard]] std::string_view to_string(FailureKind kind) noexcept;

/// Thrown when a simulated node crashes underneath an executing operation.
/// Library code lets this propagate to the caller, exactly like a process
/// losing its machine: the next step is recovery, not error handling.
class NodeCrashed : public std::runtime_error {
 public:
  NodeCrashed(std::uint32_t node_id, FailureKind kind, std::string point);

  [[nodiscard]] std::uint32_t node_id() const noexcept { return node_id_; }
  [[nodiscard]] FailureKind kind() const noexcept { return kind_; }
  /// The failure point at which the crash was injected ("" if scheduled).
  [[nodiscard]] const std::string& point() const noexcept { return point_; }

 private:
  std::uint32_t node_id_;
  FailureKind kind_;
  std::string point_;
};

/// A power supply (wall socket or UPS).  Nodes reference a supply by index;
/// failing a supply crashes every attached node at once, which is how tests
/// demonstrate that mirrors on *different* supplies survive while mirrors
/// sharing one do not.
struct PowerSupply {
  std::string name;
  bool failed = false;
};

/// Scriptable failure points.
///
/// Library code calls notify("perseas.commit.after_flag_set") at each
/// interesting step (the full set lives in core/failure_points.hpp); a
/// test arms an action at that point with an optional countdown ("crash
/// on the 3rd commit").  Actions typically crash a node
/// and therefore throw NodeCrashed through the library operation.
///
/// Thread-safe: arm lists and hit counts are guarded by mu_, so
/// instrumented library code on several worker threads can notify()
/// concurrently.  Armed actions run *outside* the lock (they may crash
/// nodes, throw, or re-enter arm()/notify()); the observer runs inside it.
/// A cluster's flight recorder shares mu_ (see mutex()), so the observer
/// records a firing without taking a second lock.
class FailureInjector {
 public:
  using Action = std::function<void()>;

  /// Sees every notify() with the point's name and its new hit count,
  /// *before* any armed action fires (so a crash action still leaves the
  /// firing on record).  The cluster wires its flight recorder here, which
  /// is how every engine's injector firings — rvm, vista, netram, perseas
  /// — land in the blackbox with zero per-engine instrumentation.
  ///
  /// Runs under the injector's lock, so it sees each point's hits in
  /// increasing order even when several threads notify at once.  It must
  /// therefore be short and must not block on anything that can wait for
  /// a notify(), and must not call back into this injector at all (arm(),
  /// notify(), hits() ... would self-deadlock).
  using Observer = std::function<void(std::string_view point, std::uint64_t hits)>;

  /// Arms `action` to run when `point` has been hit `after_hits` more times
  /// (0 = next hit).  Multiple arms on one point all fire.
  void arm(std::string point, std::uint64_t after_hits, Action action);

  /// Convenience: arms on the next hit.
  void arm(std::string point, Action action) { arm(std::move(point), 0, std::move(action)); }

  /// Disarms everything.  Hit counts are deliberately kept: coverage
  /// assertions (hits() / seen_points()) keep working after a scenario
  /// disarms its pending actions.  Use reset() for a pristine injector.
  void clear() noexcept {
    sync::LockGuard lock(mu_);
    armed_.clear();
  }

  /// Disarms everything *and* forgets all hit counts, as if freshly
  /// constructed.  Scenarios that reuse one injector across independent
  /// runs must call this, or arm(point, after_hits, ...) countdowns will
  /// be offset by the previous run's hits.
  void reset() noexcept {
    sync::LockGuard lock(mu_);
    armed_.clear();
    counts_.clear();
  }

  /// Called by instrumented library code.  Runs (and removes) every armed
  /// action whose countdown expires at this hit.  Cheap when nothing is
  /// armed.
  void notify(std::string_view point);

  /// Installs (or with an empty function removes) the notify observer.
  void set_observer(Observer observer);

  /// Total hits observed for `point` (for tests asserting coverage).
  [[nodiscard]] std::uint64_t hits(std::string_view point) const noexcept;

  /// All distinct points seen so far; lets exhaustive crash tests iterate
  /// every commit stage without hard-coding the list.
  [[nodiscard]] std::vector<std::string> seen_points() const;

  /// One (point, hits) row per distinct point seen so far.
  struct PointHits {
    std::string point;
    std::uint64_t hits = 0;
  };

  /// Sorted snapshot of every point and its hit count.  Model checkers diff
  /// two snapshots to get the exact set of stores executed by one window of
  /// work (a transaction, a recovery pass) without hard-coded point lists.
  [[nodiscard]] std::vector<PointHits> snapshot() const;

  /// The lock notify() holds while it runs the observer; an observer that
  /// guards its own state with this same mutex needs no lock of its own.
  [[nodiscard]] sync::Mutex& mutex() const PERSEAS_RETURN_CAPABILITY(mu_) { return mu_; }

  /// Number of actions still armed (fired actions remove themselves); lets
  /// explorers detect an armed crash whose point was never reached.
  [[nodiscard]] std::size_t armed_count() const noexcept {
    sync::LockGuard lock(mu_);
    return armed_.size();
  }

 private:
  struct Armed {
    std::string point;
    std::uint64_t fire_at_hit;  // absolute hit index at which to fire
    Action action;
  };
  struct PointCount {
    std::string point;
    std::uint64_t hits = 0;
  };

  PointCount& count_for(std::string_view point) PERSEAS_REQUIRES(mu_);

  mutable sync::Mutex mu_;
  std::vector<Armed> armed_ PERSEAS_GUARDED_BY(mu_);
  std::vector<PointCount> counts_ PERSEAS_GUARDED_BY(mu_);
  Observer observer_ PERSEAS_GUARDED_BY(mu_);
};

}  // namespace perseas::sim
