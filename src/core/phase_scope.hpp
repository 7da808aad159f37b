// core::PhaseScope — the one way the orchestration layer opens a protocol
// phase.  Callers name the phase; kPhaseTable says where it is booked: the
// cost ledger scope, the PerseasStats time_* slot, and for figure 3's five
// cost phases TxnObserver::on_phase.  Construction pushes the ledger scope
// and starts timing; end() books the slot and reports; destruction pops
// the scope.  A scope destroyed without end() (an exception such as
// NodeCrashed unwound through it) keeps its ledger charges but books
// nothing else.  Phases without a slot or report need no end().  Like
// obs::ScopedCost it charges nothing and allocates nothing.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "core/perseas_config.hpp"
#include "core/txn_hooks.hpp"
#include "obs/cost_ledger.hpp"
#include "sim/clock.hpp"

namespace perseas::core {

/// Where a phase is booked (the ledger's phase key is to_string(phase)).
struct PhaseBooking {
  TxnPhase phase;
  std::string_view layer;                ///< ledger layer
  std::string_view channel;              ///< ledger channel
  sim::SimDuration PerseasStats::*slot;  ///< nullptr: no stats slot
  bool observed;                         ///< reported through on_phase
};

/// One row per TxnPhase, in enum order; flag_set and flag_clear share a slot.
inline constexpr std::array<PhaseBooking, kPhaseCount> kPhaseTable = {{
    {TxnPhase::kLocalUndo, "core", "local", &PerseasStats::time_local_undo, true},
    {TxnPhase::kRemoteUndo, "core", "undo", &PerseasStats::time_remote_undo, true},
    {TxnPhase::kPropagate, "core", "propagate", &PerseasStats::time_propagation, true},
    {TxnPhase::kFlagSet, "core", "flag", &PerseasStats::time_commit_flags, true},
    {TxnPhase::kFlagClear, "core", "flag", &PerseasStats::time_commit_flags, true},
    {TxnPhase::kBegin, "core", "cpu", nullptr, false},
    {TxnPhase::kSetRange, "core", "cpu", nullptr, false},
    {TxnPhase::kCcWait, "core", "cpu", &PerseasStats::time_cc_wait, false},
    {TxnPhase::kCommit, "core", "cpu", nullptr, false},
    {TxnPhase::kValidate, "core", "cpu", &PerseasStats::time_validate, false},
    {TxnPhase::kAbort, "core", "local", nullptr, false},
    {TxnPhase::kRecover, "core", "cpu", nullptr, false},
}};
static_assert([] {
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const PhaseBooking& b = kPhaseTable[i];
    if (static_cast<std::size_t>(b.phase) != i || b.observed != (i < kObservedPhaseCount)) {
      return false;
    }
  }
  return true;
}(), "kPhaseTable rows follow TxnPhase, observed phases first");

class PhaseScope {
 public:
  /// Opens `phase` of `txn` (0: none); ledger and observer may be null.
  PhaseScope(obs::CostLedger* ledger, const sim::SimClock& clock, PerseasStats& stats,
             TxnObserver* observer, std::uint64_t txn, TxnPhase phase)
      : booking_(&kPhaseTable[static_cast<std::size_t>(phase)]),
        cost_(ledger, txn, to_string(phase), booking_->layer, booking_->channel),
        watch_(clock),
        stats_(&stats),
        observer_(observer),
        txn_(txn) {}
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  /// Ends the phase normally (at most once): books the elapsed time, then
  /// reports an observed phase with `bytes` and `mirror` unless !report.
  void end(std::uint64_t bytes = 0, std::uint32_t mirror = 0, bool report = true) {
    const sim::SimDuration elapsed = watch_.elapsed();
    if (booking_->slot != nullptr) stats_->*booking_->slot += elapsed;
    if (report && booking_->observed && observer_ != nullptr) {
      observer_->on_phase(txn_, booking_->phase, watch_.start(), elapsed, bytes, mirror);
    }
  }

 private:
  const PhaseBooking* booking_;
  obs::ScopedCost cost_;
  sim::StopWatch watch_;
  PerseasStats* stats_;
  TxnObserver* observer_;
  std::uint64_t txn_;
};

}  // namespace perseas::core
