// Transaction-lifecycle tracer: a core::TxnObserver that turns the PERSEAS
// protocol hooks into Perfetto spans and registry metrics.
//
// Installed via PerseasConfig::trace / PerseasConfig::metrics (or the
// PERSEAS_TRACE / PERSEAS_METRICS environment variables), usually alongside
// check::TxnValidator through core::TxnObserverMux.  Per transaction it
// emits
//
//   txn                 whole-transaction span (begin -> commit/abort)
//   txn.commit          commit-request -> commit-point span
//   txn.local_undo      phase spans with byte counts (figure 3's cost
//   txn.remote_undo     composition, one kPropagate/kFlagSet/kFlagClear
//   txn.propagate       span per mirror)
//   txn.flag_set/clear
//   txn.begin/.set_range/.undo_push/.abort   instant markers
//
// and observes perseas_txn_us plus perseas_txn_phase_us{phase=...}
// histograms.  With write-set coalescing on (the default), undo spans and
// the perseas_undo_entry_bytes histogram see one sample per *fresh*
// (uncovered) sub-range — a fully-covered set_range logs nothing, so it
// emits a .set_range marker but no undo phase span.
//
// Transactions may be open concurrently.  Each open transaction is pinned
// to a display slot for its lifetime: slot 0 is the primary track the
// tracer was constructed with, higher slots lazily register overflow
// tracks named "<label>#<slot+1>", so concurrent spans never interleave on
// one Perfetto track.  A workload that keeps at most one transaction open
// only ever touches slot 0 and produces the identical event stream the
// single-transaction tracer did.  Like the validator, the tracer performs
// plain local computation only: no simulated time, no simulated traffic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/txn_hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/clock.hpp"

namespace perseas::obs {

class TxnTracer final : public core::TxnObserver {
 public:
  /// Either of `trace` / `metrics` may be null (trace-only or metrics-only
  /// installs); both must outlive the tracer.  `track` is the recorder
  /// track to emit on (slot 0), `node` the application node (the Perfetto
  /// tid), `label` the base name for lazily-registered overflow tracks.
  TxnTracer(const sim::SimClock& clock, TraceRecorder* trace, std::uint32_t track,
            MetricsRegistry* metrics, std::uint32_t node, std::string label);

  void on_begin(std::uint64_t txn_id, std::span<const core::TxnRecordView> records) override;
  void on_set_range(std::uint64_t txn_id, std::uint32_t record, std::uint64_t offset,
                    std::uint64_t size) override;
  void on_undo_push(std::uint64_t txn_id, std::span<const std::byte> serialized,
                    std::span<const std::byte> remote) override;
  void on_commit(std::uint64_t txn_id, std::span<const core::TxnRecordView> records) override;
  void on_abort(std::uint64_t txn_id, std::span<const core::TxnRecordView> records) override;
  void on_phase(std::uint64_t txn_id, core::TxnPhase phase, sim::SimTime start,
                sim::SimDuration duration, std::uint64_t bytes, std::uint32_t mirror) override;
  void on_commit_complete(std::uint64_t txn_id) override;

  /// All-zero: the tracer takes no snapshots and checks nothing, so
  /// Perseas::validator_stats still reports only the validator's work when
  /// both observers are installed (see core::TxnObserverMux::stats).
  [[nodiscard]] const core::TxnObserverStats& stats() const noexcept override {
    return zero_stats_;
  }

  [[nodiscard]] std::uint64_t txns_traced() const noexcept { return txns_traced_; }

 private:
  /// Lifecycle state of one open transaction, pinned to a display slot.
  struct TxnState {
    std::uint64_t txn_id = 0;
    std::uint32_t slot = 0;
    sim::SimTime begin_ts = 0;
    sim::SimTime commit_request_ts = 0;
  };

  [[nodiscard]] sim::SimTime now() const noexcept { return clock_->now(); }
  [[nodiscard]] TxnState* state(std::uint64_t txn_id) noexcept;
  [[nodiscard]] std::uint32_t track_of(const TxnState& st);
  /// Track for an event that arrives without an open state (defensive:
  /// never happens through Perseas, which opens states at on_begin).
  [[nodiscard]] std::uint32_t track_of(std::uint64_t txn_id);
  void close_txn_span(const TxnState& st, const char* outcome);

  const sim::SimClock* clock_;
  TraceRecorder* trace_;
  MetricsRegistry* metrics_;
  std::uint32_t track_;
  std::uint32_t node_;
  std::string label_;

  std::vector<TxnState> open_;
  std::vector<std::uint32_t> overflow_tracks_;  ///< track id of slot i+1
  std::uint64_t txns_traced_ = 0;

  Histogram* txn_us_ = nullptr;
  Histogram* undo_entry_bytes_ = nullptr;
  /// "txn.<phase>" span names and perseas_txn_phase_us histograms, per
  /// observed phase.
  std::string span_names_[core::kObservedPhaseCount];
  Histogram* phase_us_[core::kObservedPhaseCount] = {};

  core::TxnObserverStats zero_stats_;
};

}  // namespace perseas::obs
