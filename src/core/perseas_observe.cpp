// Observability wiring of the Perseas orchestration layer: observer
// installation (validator/tracer/mux), environment-variable-owned sinks,
// and the PerseasStats -> MetricsRegistry export.  Split from perseas.cpp
// so the protocol sequencing stays readable on its own.
#include <cstdlib>
#include <string>

#include "check/txn_validator.hpp"
#include "core/observer_mux.hpp"
#include "core/perseas.hpp"
#include "obs/txn_tracer.hpp"

namespace perseas::core {

namespace {

/// Non-empty value of environment variable `name`, or nullptr.
const char* env_path(const char* name) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? v : nullptr;
}

}  // namespace

void Perseas::maybe_install_observers() {
  std::unique_ptr<TxnObserver> validator;
  if (config_.validate_writes || std::getenv("PERSEAS_VALIDATE_WRITES") != nullptr) {
    validator = std::make_unique<check::TxnValidator>();
  }

  // Config pointers win; the environment variables only kick in when the
  // caller wired nothing, and then the instance owns the sinks and dumps
  // them at destruction.
  obs::TraceRecorder* trace = config_.trace;
  obs::MetricsRegistry* metrics = config_.metrics;
  if (trace == nullptr && metrics == nullptr) {
    if (const char* path = env_path("PERSEAS_TRACE")) {
      owned_trace_ = std::make_unique<obs::TraceRecorder>();
      owned_trace_path_ = path;
      trace = owned_trace_.get();
    }
    if (const char* path = env_path("PERSEAS_METRICS")) {
      owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
      owned_metrics_path_ = path;
      metrics = owned_metrics_.get();
    }
  }

  std::unique_ptr<TxnObserver> tracer;
  if (trace != nullptr || metrics != nullptr) {
    std::uint32_t track = config_.trace_track;
    if (trace != nullptr && track == 0) {
      track = trace->register_track("perseas:" + config_.name);
      trace->set_thread_name(track, static_cast<std::uint32_t>(local_),
                             "node-" + std::to_string(local_));
    }
    tracer = std::make_unique<obs::TxnTracer>(cluster_->clock(), trace, track, metrics,
                                              static_cast<std::uint32_t>(local_),
                                              "perseas:" + config_.name);
  }

  if (validator != nullptr && tracer != nullptr) {
    auto mux = std::make_unique<TxnObserverMux>();
    mux->add(std::move(validator));  // first: a veto throw skips the tracer
    mux->add(std::move(tracer));
    observer_ = std::move(mux);
  } else if (validator != nullptr) {
    observer_ = std::move(validator);
  } else {
    observer_ = std::move(tracer);
  }
}

void Perseas::flush_owned_observability() noexcept {
  try {
    if (owned_metrics_ != nullptr) {
      export_metrics(*owned_metrics_);
      owned_metrics_->save(owned_metrics_path_);
      owned_metrics_.reset();
    }
    if (owned_trace_ != nullptr) {
      owned_trace_->save(owned_trace_path_);
      owned_trace_.reset();
    }
  } catch (...) {
    // Destructor path: a failed dump must not terminate the program.
  }
}

void Perseas::export_metrics(obs::MetricsRegistry& reg) const {
  sync::LockGuard lock(mu_);
  count_read_ranges();
  const std::string db = "db=\"" + config_.name + "\"";
  const auto count = [&](std::string_view name, std::string_view help, std::uint64_t v,
                         const std::string& labels) { reg.counter(name, help, labels).add(v); };

  count("perseas_txns_total", "Transactions finished, by outcome", stats_.txns_committed,
        db + ",outcome=\"committed\"");
  count("perseas_txns_total", "Transactions finished, by outcome", stats_.txns_aborted,
        db + ",outcome=\"aborted\"");
  count("perseas_txn_conflicts_total",
        "Operations rejected with TxnConflict, any abort reason", stats_.txns_conflicted, db);
  // Per-reason breakdown of the conflicts counter.  The kConflict share is
  // derived (total minus the named subsets), so the three series sum to
  // perseas_txn_conflicts_total by construction — checked by
  // tools/check-bench-json.py.
  const char* reject_help = "TxnConflict rejections, by abort reason";
  count("perseas_cc_rejections_total", reject_help,
        stats_.txns_conflicted - stats_.txns_wounded - stats_.txns_validation_failed,
        db + ",reason=\"conflict\"");
  count("perseas_cc_rejections_total", reject_help, stats_.txns_wounded,
        db + ",reason=\"wounded\"");
  count("perseas_cc_rejections_total", reject_help, stats_.txns_validation_failed,
        db + ",reason=\"validation_failed\"");
  count("perseas_cc_waits_total",
        "Charged waits taken before a conflict rejection (wait-die)", stats_.cc_waits, db);
  count("perseas_set_ranges_total", "set_range declarations", stats_.set_ranges, db);
  count("perseas_read_ranges_total", "read_range declarations joining a read set",
        stats_.read_ranges, db);
  count("perseas_undo_growths_total", "Undo-log doubling events", stats_.undo_growths, db);
  count("perseas_mirror_rebuilds_total", "rebuild_mirror invocations", stats_.mirror_rebuilds,
        db);

  // The per-channel byte counters the acceptance check compares against
  // PerseasStats: undo (local memcpy / remote push) and propagation.
  const char* bytes_help = "Bytes moved per PERSEAS channel";
  count("perseas_bytes_total", bytes_help, stats_.bytes_undo_local,
        db + ",channel=\"undo_local\"");
  count("perseas_bytes_total", bytes_help, stats_.bytes_undo_remote,
        db + ",channel=\"undo_remote\"");
  count("perseas_bytes_total", bytes_help, stats_.bytes_propagated,
        db + ",channel=\"propagate\"");

  // Write-set coalescing: savings and burst counts.  Always exported (all
  // zero when coalesce_ranges is off) so tools/check-bench-json.py can
  // require the series in both ablation legs.
  count("perseas_ranges_coalesced_total",
        "set_range declarations that overlapped the transaction's declared union",
        stats_.ranges_coalesced, db);
  const char* dedup_help = "Bytes write-set coalescing avoided moving, per channel";
  count("perseas_bytes_dedup_total", dedup_help, stats_.bytes_dedup_undo,
        db + ",channel=\"undo\"");
  count("perseas_bytes_dedup_total", dedup_help, stats_.bytes_dedup_propagated,
        db + ",channel=\"propagate\"");
  const char* writes_help = "Gathered SCI store operations, per channel";
  count("perseas_sci_writes_total", writes_help, stats_.undo_writes, db + ",channel=\"undo\"");
  count("perseas_sci_writes_total", writes_help, stats_.propagate_writes,
        db + ",channel=\"propagate\"");

  // Simulated nanoseconds per protocol phase (exact integers; figure 3's
  // cost decomposition).
  const char* phase_help = "Simulated nanoseconds spent per protocol phase";
  count("perseas_phase_ns_total", phase_help, static_cast<std::uint64_t>(stats_.time_local_undo),
        db + ",phase=\"local_undo\"");
  count("perseas_phase_ns_total", phase_help,
        static_cast<std::uint64_t>(stats_.time_remote_undo), db + ",phase=\"remote_undo\"");
  count("perseas_phase_ns_total", phase_help,
        static_cast<std::uint64_t>(stats_.time_propagation), db + ",phase=\"propagate\"");
  count("perseas_phase_ns_total", phase_help,
        static_cast<std::uint64_t>(stats_.time_commit_flags), db + ",phase=\"commit_flags\"");
  count("perseas_phase_ns_total", phase_help, static_cast<std::uint64_t>(stats_.time_cc_wait),
        db + ",phase=\"cc_wait\"");
  count("perseas_phase_ns_total", phase_help, static_cast<std::uint64_t>(stats_.time_validate),
        db + ",phase=\"validate\"");

  reg.gauge("perseas_undo_capacity_bytes", "Current undo-log capacity", db)
      .set(static_cast<double>(undo_log_.capacity()));
  reg.gauge("perseas_undo_used_bytes", "Undo-log bytes occupied by the open transactions", db)
      .set(static_cast<double>(undo_log_.tail()));
  reg.gauge("perseas_open_txns_peak", "High-water mark of concurrently open transactions", db)
      .set(static_cast<double>(stats_.max_open_txns));
  reg.gauge("perseas_mirrors", "Configured replication degree", db)
      .set(static_cast<double>(mirror_set_.size()));
  reg.gauge("perseas_records", "Persistent records allocated", db)
      .set(static_cast<double>(records_.size()));

  // Recovery self-report (all-zero / absent gauges for fresh instances):
  // what the undo scan announced, verified and decided.
  if (recovery_.ran) {
    reg.gauge("perseas_recovery_announced_txn",
              "Transaction id the recovered metadata announced (0 = clean)", db)
        .set(static_cast<double>(recovery_.announced_txn));
    reg.gauge("perseas_recovery_checksum_ok",
              "1 when the announced undo prefix parsed and checksummed cleanly", db)
        .set(recovery_.checksum_ok ? 1.0 : 0.0);
    count("perseas_recovery_entries_total", "Undo entries per recovery-scan verdict",
          recovery_.entries_scanned, db + ",verdict=\"scanned\"");
    count("perseas_recovery_entries_total", "Undo entries per recovery-scan verdict",
          recovery_.entries_applied, db + ",verdict=\"applied\"");
    count("perseas_recovery_entries_total", "Undo entries per recovery-scan verdict",
          recovery_.entries_discarded, db + ",verdict=\"discarded\"");
    count("perseas_recovery_bytes_scanned_total", "Undo-log bytes the recovery scan parsed",
          recovery_.bytes_scanned, db);
  }

  if (observer_) {
    const TxnObserverStats v = validator_stats();
    count("perseas_validator_txns_observed_total", "Transactions seen by the observer chain",
          v.txns_observed, db);
    count("perseas_validator_snapshots_total", "Records snapshotted at begin",
          v.snapshots_taken, db);
    count("perseas_validator_snapshot_bytes_total", "Bytes snapshotted by the validator",
          v.snapshot_bytes, db);
    count("perseas_validator_ranges_tracked_total", "set_range declarations observed",
          v.ranges_tracked, db);
    count("perseas_validator_commits_checked_total", "Commits diffed by check::TxnValidator",
          v.commits_checked, db);
    count("perseas_validator_aborts_checked_total", "Aborts verified byte-identical",
          v.aborts_checked, db);
    count("perseas_validator_undo_crosschecks_total", "Remote undo entries byte-compared",
          v.undo_crosschecks, db);
    count("perseas_validator_uncovered_writes_total", "CoverageErrors raised",
          v.uncovered_writes, db);
    count("perseas_validator_unused_ranges_total", "Declared-but-untouched range warnings",
          v.unused_ranges, db);
  }
}

}  // namespace perseas::core
