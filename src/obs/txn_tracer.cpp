#include "obs/txn_tracer.hpp"

#include <algorithm>

namespace perseas::obs {

TxnTracer::TxnTracer(const sim::SimClock& clock, TraceRecorder* trace, std::uint32_t track,
                     MetricsRegistry* metrics, std::uint32_t node, std::string label)
    : clock_(&clock),
      trace_(trace),
      metrics_(metrics),
      track_(track),
      node_(node),
      label_(std::move(label)) {
  if (metrics_ != nullptr) {
    txn_us_ = &metrics_->histogram("perseas_txn_us",
                                   "Simulated whole-transaction latency in microseconds");
    undo_entry_bytes_ = &metrics_->histogram("perseas_undo_entry_bytes",
                                             "Serialized undo entry size pushed per mirror");
  }
  for (std::size_t p = 0; p < core::kObservedPhaseCount; ++p) {
    const std::string phase_name(core::to_string(static_cast<core::TxnPhase>(p)));
    span_names_[p] = "txn." + phase_name;
    if (metrics_ != nullptr) {
      phase_us_[p] = &metrics_->histogram(
          "perseas_txn_phase_us", "Simulated per-phase transaction cost in microseconds",
          "phase=\"" + phase_name + "\"");
    }
  }
}

TxnTracer::TxnState* TxnTracer::state(std::uint64_t txn_id) noexcept {
  for (auto& st : open_) {
    if (st.txn_id == txn_id) return &st;
  }
  return nullptr;
}

std::uint32_t TxnTracer::track_of(const TxnState& st) {
  if (st.slot == 0) return track_;
  // Overflow slots register their tracks on first use and keep them for
  // the recorder's lifetime; slots are handed out lowest-free-first so the
  // vector grows contiguously.
  while (overflow_tracks_.size() < st.slot) {
    const std::string name = label_ + "#" + std::to_string(overflow_tracks_.size() + 2);
    const std::uint32_t t = trace_->register_track(name);
    trace_->set_thread_name(t, node_, "node-" + std::to_string(node_));
    overflow_tracks_.push_back(t);
  }
  return overflow_tracks_[st.slot - 1];
}

std::uint32_t TxnTracer::track_of(std::uint64_t txn_id) {
  const TxnState* st = state(txn_id);
  return st != nullptr ? track_of(*st) : track_;
}

void TxnTracer::on_begin(std::uint64_t txn_id, std::span<const core::TxnRecordView> records) {
  (void)records;
  // Pin the transaction to the lowest display slot no open neighbour holds.
  std::uint32_t slot = 0;
  while (std::any_of(open_.begin(), open_.end(),
                     [slot](const TxnState& st) { return st.slot == slot; })) {
    ++slot;
  }
  TxnState st;
  st.txn_id = txn_id;
  st.slot = slot;
  st.begin_ts = now();
  st.commit_request_ts = st.begin_ts;
  open_.push_back(st);
  if (trace_ != nullptr) {
    trace_->instant(track_of(open_.back()), node_, "txn", "txn.begin", st.begin_ts,
                    {{"txn", txn_id}});
  }
}

void TxnTracer::on_set_range(std::uint64_t txn_id, std::uint32_t record, std::uint64_t offset,
                             std::uint64_t size) {
  if (trace_ != nullptr) {
    trace_->instant(track_of(txn_id), node_, "txn", "txn.set_range", now(),
                    {{"txn", txn_id}, {"record", record}, {"offset", offset}, {"bytes", size}});
  }
}

void TxnTracer::on_undo_push(std::uint64_t txn_id, std::span<const std::byte> serialized,
                             std::span<const std::byte> remote) {
  (void)remote;
  if (trace_ != nullptr) {
    trace_->instant(track_of(txn_id), node_, "txn", "txn.undo_push", now(),
                    {{"txn", txn_id}, {"bytes", serialized.size()}});
  }
  if (undo_entry_bytes_ != nullptr) {
    undo_entry_bytes_->observe(static_cast<double>(serialized.size()));
  }
}

void TxnTracer::on_commit(std::uint64_t txn_id, std::span<const core::TxnRecordView> records) {
  (void)records;
  if (TxnState* st = state(txn_id)) st->commit_request_ts = now();
}

void TxnTracer::on_phase(std::uint64_t txn_id, core::TxnPhase phase, sim::SimTime start,
                         sim::SimDuration duration, std::uint64_t bytes, std::uint32_t mirror) {
  const auto p = static_cast<std::size_t>(phase);
  if (p >= core::kObservedPhaseCount) return;
  if (trace_ != nullptr) {
    trace_->complete(track_of(txn_id), node_, "txn", span_names_[p], start, duration,
                     {{"txn", txn_id}, {"bytes", bytes}, {"mirror", mirror}});
  }
  if (phase_us_[p] != nullptr) {
    phase_us_[p]->observe(sim::to_us(duration));
  }
}

void TxnTracer::close_txn_span(const TxnState& st, const char* outcome) {
  const sim::SimTime end = now();
  if (trace_ != nullptr) {
    trace_->complete(track_of(st), node_, "txn", "txn", st.begin_ts, end - st.begin_ts,
                     {{"txn", st.txn_id}, {"committed", outcome != nullptr ? 1u : 0u}});
  }
  if (txn_us_ != nullptr) txn_us_->observe(sim::to_us(end - st.begin_ts));
  ++txns_traced_;
}

void TxnTracer::on_commit_complete(std::uint64_t txn_id) {
  TxnState* st = state(txn_id);
  if (st == nullptr) return;
  if (trace_ != nullptr) {
    trace_->complete(track_of(*st), node_, "txn", "txn.commit", st->commit_request_ts,
                     now() - st->commit_request_ts, {{"txn", txn_id}});
  }
  const TxnState closed = *st;
  open_.erase(open_.begin() + (st - open_.data()));
  close_txn_span(closed, "txn.commit");
}

void TxnTracer::on_abort(std::uint64_t txn_id, std::span<const core::TxnRecordView> records) {
  (void)records;
  TxnState* st = state(txn_id);
  if (st == nullptr) return;
  if (trace_ != nullptr) {
    trace_->instant(track_of(*st), node_, "txn", "txn.abort", now(), {{"txn", txn_id}});
  }
  const TxnState closed = *st;
  open_.erase(open_.begin() + (st - open_.data()));
  close_txn_span(closed, nullptr);
}

}  // namespace perseas::obs
