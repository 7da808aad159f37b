// A timing decorator over workload::TxnEngine for the traced benchmark run.
//
// Every call, the slot API included, is forwarded to the wrapped engine
// unchanged; the transaction calls are timed from outside with
// std::chrono::steady_clock and the host nanoseconds appended to an
// in-memory buffer.  Buffers are per slot, and the workload loops this
// benchmark uses give each thread its own slot (run_contention: worker w
// drives slot w; the classic single-transaction API is slot 0), so every
// buffer has a single writer and no lock is shared between threads.  Read
// the buffers only after the workload's threads have been joined.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <limits>
#include <vector>

#include "workload/engine.hpp"

namespace perfbench {

class TimedEngine final : public perseas::workload::TxnEngine {
 public:
  enum Op : std::uint8_t { kBegin, kSetRange, kReadRange, kCommit, kAbort, kOpCount };

  explicit TimedEngine(perseas::workload::TxnEngine& inner)
      : inner_(&inner), slots_(inner.max_open_txns()) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] perseas::netram::Cluster& cluster() noexcept override {
    return inner_->cluster();
  }
  [[nodiscard]] perseas::netram::NodeId app_node() const noexcept override {
    return inner_->app_node();
  }
  [[nodiscard]] std::span<std::byte> db() override { return inner_->db(); }
  [[nodiscard]] std::uint64_t db_size() const noexcept override { return inner_->db_size(); }

  void begin() override { timed(0, kBegin, [&] { inner_->begin(); }); }
  void set_range(std::uint64_t offset, std::uint64_t size) override {
    timed(0, kSetRange, [&] { inner_->set_range(offset, size); });
  }
  void commit() override { timed(0, kCommit, [&] { inner_->commit(); }); }
  void abort() override { timed(0, kAbort, [&] { inner_->abort(); }); }

  [[nodiscard]] std::uint32_t max_open_txns() const noexcept override {
    return inner_->max_open_txns();
  }
  void begin_slot(std::uint32_t slot) override {
    timed(slot, kBegin, [&] { inner_->begin_slot(slot); });
  }
  void set_range_slot(std::uint32_t slot, std::uint64_t offset, std::uint64_t size) override {
    timed(slot, kSetRange, [&] { inner_->set_range_slot(slot, offset, size); });
  }
  void read_range_slot(std::uint32_t slot, std::uint64_t offset, std::uint64_t size) override {
    timed(slot, kReadRange, [&] { inner_->read_range_slot(slot, offset, size); });
  }
  void commit_slot(std::uint32_t slot) override {
    timed(slot, kCommit, [&] { inner_->commit_slot(slot); });
  }
  void abort_slot(std::uint32_t slot) override {
    timed(slot, kAbort, [&] { inner_->abort_slot(slot); });
  }

  void set_trace(perseas::obs::TraceRecorder* trace, std::uint32_t track) override {
    inner_->set_trace(trace, track);
  }
  void export_metrics(perseas::obs::MetricsRegistry& reg) const override {
    inner_->export_metrics(reg);
  }

  /// Every recorded host duration of `op`, over all slots, in ns.
  [[nodiscard]] std::vector<double> samples(Op op) const {
    std::vector<double> out;
    for (const SlotBuffers& s : slots_) out.insert(out.end(), s[op].begin(), s[op].end());
    return out;
  }

 private:
  // One cache line apart, so slots written by different threads do not
  // share one.
  struct alignas(64) SlotBuffers {
    std::array<std::vector<std::uint32_t>, kOpCount> ops;
    std::vector<std::uint32_t>& operator[](Op op) { return ops[op]; }
    const std::vector<std::uint32_t>& operator[](Op op) const { return ops[op]; }
  };

  template <class F>
  void timed(std::uint32_t slot, Op op, F&& call) {
    check_slot(slot);
    std::vector<std::uint32_t>& buf = slots_[slot][op];
    const auto t0 = std::chrono::steady_clock::now();
    try {
      call();
    } catch (...) {
      record(buf, t0);  // a call that throws (a lost conflict) still spent its time
      throw;
    }
    record(buf, t0);
  }

  static void record(std::vector<std::uint32_t>& buf, std::chrono::steady_clock::time_point t0) {
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() - t0)
            .count();
    constexpr auto kMax = std::numeric_limits<std::uint32_t>::max();
    buf.push_back(ns < kMax ? static_cast<std::uint32_t>(ns) : kMax);
  }

  perseas::workload::TxnEngine* inner_;
  std::vector<SlotBuffers> slots_;
};

}  // namespace perfbench
