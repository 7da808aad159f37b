// obs::CostLedger — per-transaction cost attribution with a conservation
// law.
//
// The paper's whole argument is a cost model: every simulated microsecond
// of commit latency is charged somewhere by the netram layer.  The ledger
// makes that attribution explicit: every charged nanosecond and every SCI
// byte lands under a (txn, phase, layer, channel) key, and because the
// ledger observes sim::SimClock::advance() itself (not the individual
// charge sites), the conservation check
//
//     sum over keys of ns  ==  clock.now() - installation time
//
// holds EXACTLY, by construction — there is no way for a new charge site
// to escape the books.  Charges that arrive outside any scope are booked
// under the root key {txn=0, phase="unattributed", layer="sim",
// channel="-"}; a growing unattributed row is the signal that a code path
// needs a scope.
//
// Attribution is scoped RAII-style: the protocol opens every phase through
// core::PhaseScope (core/phase_scope.hpp), which pushes a ScopedCost keyed
// by its phase table and feeds PerseasStats and the observers from the
// same scope; every charge the netram layer makes while the scope is live
// is booked to it.  Bytes are attributed explicitly by the cluster's
// charged ops via add_bytes().
//
// Like all of perseas::obs, the ledger charges no simulated time and no
// simulated traffic of its own; with no ledger installed the clock hook
// is a null-pointer check and runs are bit-for-bit cost-identical.
//
// Threading: the ledger is one shared instance behind one mutex, but the
// scope *stacks* are per worker (keyed by sim::current_worker_id(), 0 for
// the main thread), so a charge made on worker 3 is booked to the scope
// worker 3 pushed — not to whatever scope another thread happens to have
// open.  The conservation law survives threads because the clock's total
// is itself the sum of every thread's charges (see sim::ThreadClock).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/sync.hpp"
#include "obs/json.hpp"
#include "sim/clock.hpp"

namespace perseas::obs {

/// One attribution scope / ledger row key.  txn 0 means "not
/// transaction-scoped" (recovery, setup, background traffic).
struct CostKey {
  std::uint64_t txn = 0;
  std::string phase = "unattributed";
  std::string layer = "sim";
  std::string channel = "-";

  [[nodiscard]] bool operator==(const CostKey& o) const noexcept {
    return txn == o.txn && phase == o.phase && layer == o.layer && channel == o.channel;
  }
};

/// Hash of every CostKey field, for CostLedger's row index.
struct CostKeyHash {
  [[nodiscard]] std::size_t operator()(const CostKey& k) const noexcept {
    std::size_t h = std::hash<std::uint64_t>{}(k.txn);
    for (const std::string* s : {&k.phase, &k.layer, &k.channel}) {
      h ^= std::hash<std::string>{}(*s) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

/// One ledger row: the accumulated simulated time and SCI bytes of a key.
struct CostEntry {
  CostKey key;
  sim::SimDuration ns = 0;
  std::uint64_t bytes = 0;
};

class CostLedger final : public sim::SimClock::ChargeObserver {
 public:
  CostLedger() = default;
  CostLedger(const CostLedger&) = delete;
  CostLedger& operator=(const CostLedger&) = delete;

  /// sim::SimClock::ChargeObserver: books `d` under the calling thread's
  /// current scope.
  void on_advance(sim::SimDuration d) noexcept override;

  /// sim::SimClock::ChargeObserver: the clock was reset to t=0 — the
  /// accumulated rows refer to a dead epoch, so drop them (scopes held by
  /// live ScopedCost guards survive; their charges book into the new
  /// epoch).  Keeps the conservation law exact across a reset instead of
  /// silently off by the pre-reset total.
  void on_reset() noexcept override;

  /// Books `n` SCI bytes under the current scope (called by the cluster's
  /// charged data movers; control RPCs move no payload bytes).
  void add_bytes(std::uint64_t n) noexcept;

  /// Scope stack of the calling thread's worker (prefer the ScopedCost
  /// RAII wrapper).  Push and pop must happen on the same thread.
  void push_scope(CostKey key);
  void pop_scope() noexcept;

  /// Rows in first-charge order.
  [[nodiscard]] std::vector<CostEntry> entries() const;

  /// Conservation left-hand side: total nanoseconds across every row.
  /// Equals the clock delta since installation, exactly.
  [[nodiscard]] sim::SimDuration total_ns() const noexcept;
  [[nodiscard]] std::uint64_t total_bytes() const noexcept;

  /// Aggregated ns per phase, first-charge order — the fig6-style
  /// breakdown (local undo / remote undo / flags / propagation / ...).
  [[nodiscard]] std::vector<std::pair<std::string, sim::SimDuration>> by_phase() const;

  /// The "ledger" section of the perseas-bench/1 document: row list plus
  /// the by-phase aggregation and conservation totals.
  [[nodiscard]] Json to_json() const;

  void clear() noexcept;

 private:
  /// One worker's attribution state: its scope stack plus a cache of the
  /// row its last charge landed in (consecutive charges usually hit one
  /// key, and with threads the cache must be per worker or threads would
  /// evict each other's hit every charge).
  struct ScopeStack {
    std::vector<CostKey> scopes;
    std::size_t last_hit = 0;
  };

  [[nodiscard]] CostEntry& entry_for_top() PERSEAS_REQUIRES(mu_);

  mutable sync::Mutex mu_;
  std::vector<CostEntry> entries_ PERSEAS_GUARDED_BY(mu_);
  /// Row index of each key in entries_ (which keeps first-charge order).
  std::unordered_map<CostKey, std::size_t, CostKeyHash> index_ PERSEAS_GUARDED_BY(mu_);
  /// Per-worker scope stacks, keyed by sim::current_worker_id() (0 = main
  /// thread / any thread without a sim::ThreadClock).
  std::unordered_map<std::uint32_t, ScopeStack> stacks_ PERSEAS_GUARDED_BY(mu_);
};

/// RAII attribution scope.  Null-safe: with `ledger == nullptr` (the
/// recorder-off configuration) construction and destruction are no-ops,
/// so call sites need no branching.
class ScopedCost {
 public:
  ScopedCost(CostLedger* ledger, std::uint64_t txn, std::string_view phase,
             std::string_view layer, std::string_view channel)
      : ledger_(ledger) {
    if (ledger_ != nullptr) {
      ledger_->push_scope(
          CostKey{txn, std::string(phase), std::string(layer), std::string(channel)});
    }
  }
  ~ScopedCost() {
    if (ledger_ != nullptr) ledger_->pop_scope();
  }

  ScopedCost(const ScopedCost&) = delete;
  ScopedCost& operator=(const ScopedCost&) = delete;

 private:
  CostLedger* ledger_;
};

}  // namespace perseas::obs
