// A uniform transactional-engine interface over one flat database, so the
// paper's workloads (synthetic, debit-credit, order-entry) can run
// unmodified on PERSEAS and on every comparator.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "netram/cluster.hpp"

namespace perseas::obs {
class TraceRecorder;
class MetricsRegistry;
}  // namespace perseas::obs

namespace perseas::workload {

class TxnEngine {
 public:
  virtual ~TxnEngine() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  /// The cluster whose clock measures this engine (for workloads to charge
  /// application-level work against).
  [[nodiscard]] virtual netram::Cluster& cluster() noexcept = 0;
  /// The node the application runs on.
  [[nodiscard]] virtual netram::NodeId app_node() const noexcept = 0;

  /// The mapped database.  Writes inside a transaction must be covered by a
  /// prior set_range on the same span.
  [[nodiscard]] virtual std::span<std::byte> db() = 0;
  [[nodiscard]] virtual std::uint64_t db_size() const noexcept = 0;

  virtual void begin() = 0;
  virtual void set_range(std::uint64_t offset, std::uint64_t size) = 0;
  virtual void commit() = 0;
  virtual void abort() = 0;

  // --- concurrent transactions ---------------------------------------
  // A "slot" is the workload's name for one of its concurrently open
  // transactions (0 .. max_open_txns()-1).  Engines that support several
  // open transactions override the block below; the defaults expose
  // exactly one slot that forwards to the classic entry points, so
  // single-transaction engines need no changes.  Engines whose slots can
  // collide (PERSEAS first-writer-wins) raise their conflict exception
  // from set_range_slot; the workload aborts that slot and retries.
  //
  // Slot ownership: a slot belongs to one thread at a time.  Different
  // threads may drive different slots concurrently (mt_driver's worker w
  // drives slot w), but two threads must never operate on the same slot
  // without synchronising between them.  Engines synchronise their shared
  // state internally and keep no lock over the slot table itself.

  /// How many transactions this engine can keep open at once.
  [[nodiscard]] virtual std::uint32_t max_open_txns() const noexcept { return 1; }
  virtual void begin_slot(std::uint32_t slot) {
    check_slot(slot);
    begin();
  }
  virtual void set_range_slot(std::uint32_t slot, std::uint64_t offset, std::uint64_t size) {
    check_slot(slot);
    set_range(offset, size);
  }
  /// Declares a read for the slot's transaction.  Only engines with an
  /// optimistic validate phase (PERSEAS under validate-at-commit) act on
  /// the declaration; the default accepts and ignores it, so workloads can
  /// issue reads uniformly against every comparator.
  virtual void read_range_slot(std::uint32_t slot, std::uint64_t /*offset*/,
                               std::uint64_t /*size*/) {
    check_slot(slot);
  }
  virtual void commit_slot(std::uint32_t slot) {
    check_slot(slot);
    commit();
  }
  virtual void abort_slot(std::uint32_t slot) {
    check_slot(slot);
    abort();
  }

  /// Attaches a trace recorder to the engine's own span emitters (nullptr
  /// detaches).  Engines without internal instrumentation ignore the call;
  /// PERSEAS is instead traced via PerseasConfig::trace at construction.
  virtual void set_trace(obs::TraceRecorder* /*trace*/, std::uint32_t /*track*/) {}
  /// Folds the engine's own counters into `reg`.  Default: nothing.
  virtual void export_metrics(obs::MetricsRegistry& /*reg*/) const {}

 protected:
  /// Rejects slots beyond max_open_txns().
  void check_slot(std::uint32_t slot) const {
    if (slot >= max_open_txns()) {
      throw std::out_of_range("TxnEngine: slot " + std::to_string(slot) + " exceeds the " +
                              std::to_string(max_open_txns()) + " open transaction(s) '" +
                              std::string(name()) + "' supports");
    }
  }
};

}  // namespace perseas::workload
