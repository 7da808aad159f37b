// Record + byte-range conflict table for concurrent PERSEAS transactions.
//
// With several transactions open on one Perseas instance, two of them
// declaring overlapping ranges of the same record would corrupt each
// other's before-images: the later set_range would snapshot bytes the
// earlier transaction may already have modified, so its undo entry (and a
// crash-time rollback) could resurrect uncommitted data.  The conflict
// table forbids that interleaving at declaration time — first-writer-wins:
// set_range consults acquire() before logging anything, and the loser's
// transaction sees a TxnConflict it should handle by aborting and
// retrying.  Commits still serialize at the commit-point store, so the
// figure-3 cost model per transaction is unchanged; the table itself is
// plain local bookkeeping and charges no simulated time or traffic.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/errors.hpp"
#include "core/sync.hpp"

namespace perseas::core {

/// Why a concurrency-control policy rejected a transaction.  Carried by
/// TxnConflict so retry loops (and PerseasStats) can tell an ordinary
/// first-writer-wins loss from a wait-die wound and from a failed OCC
/// backward validation.
enum class AbortReason {
  kConflict,          ///< declaration lost to a live claim (fww, wait-die's older waiter)
  kWounded,           ///< wait-die: the younger requester dies immediately
  kValidationFailed,  ///< validate-at-commit: a committed writer overlapped the read set
};

/// A concurrency-control policy rejected the transaction: a declaration hit
/// a range claimed by another open transaction, or commit-time validation
/// found a conflicting committed writer.  Purely local and non-corrupting:
/// nothing was logged, pushed or propagated for the losing operation; the
/// caller aborts and retries.
class TxnConflict : public PerseasError {
 public:
  TxnConflict(std::uint64_t txn, std::uint64_t holder, std::uint32_t record,
              std::uint64_t offset, std::uint64_t size,
              AbortReason reason = AbortReason::kConflict);

  [[nodiscard]] std::uint64_t txn() const noexcept { return txn_; }
  [[nodiscard]] std::uint64_t holder() const noexcept { return holder_; }
  [[nodiscard]] std::uint32_t record() const noexcept { return record_; }
  [[nodiscard]] std::uint64_t offset() const noexcept { return offset_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] AbortReason reason() const noexcept { return reason_; }

 private:
  std::uint64_t txn_;
  std::uint64_t holder_;
  std::uint32_t record_;
  std::uint64_t offset_;
  std::uint64_t size_;
  AbortReason reason_;
};

class ConflictTable {
 public:
  /// Claims [offset, offset+size) of `record` for `txn`.  Overlap with a
  /// claim held by a *different* transaction throws TxnConflict (the table
  /// is left unchanged); overlap with txn's own claims is fine — ranges a
  /// transaction re-declares are its own business, and they coalesce with
  /// its existing claims so a long transaction rewriting the same ranges
  /// holds a bounded claim set instead of one entry per declaration.
  /// Empty ranges (size == 0) claim nothing and conflict with nothing.
  /// The overlap test (core::ranges_overlap) is exact for ranges ending at
  /// the very top of the 64-bit address space (where a naive
  /// `offset + size` wraps to 0).
  void acquire(std::uint64_t txn, std::uint32_t record, std::uint64_t offset,
               std::uint64_t size);

  /// acquire() that reports instead of throwing: returns 0 when the claim
  /// was taken (or the range was empty), else the id of the conflicting
  /// holder with the table unchanged.  The seam the pluggable
  /// concurrency-control policies (core/cc_policy.hpp) decide on — what to
  /// *do* about the holder (lose, wait, wound) is their business, not the
  /// table's.
  [[nodiscard]] std::uint64_t try_acquire(std::uint64_t txn, std::uint32_t record,
                                          std::uint64_t offset, std::uint64_t size);

  /// Drops every claim held by `txn` (commit, abort, or conflict-retry).
  void release(std::uint64_t txn) noexcept;

  [[nodiscard]] bool empty() const noexcept;
  /// Number of claims currently held by `txn` (tests).
  [[nodiscard]] std::size_t claims_of(std::uint64_t txn) const noexcept;

 private:
  struct Claim {
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    std::uint64_t owner = 0;
  };
  /// Guards the claim map: acquire/release race between concurrently open
  /// transactions, and first-writer-wins is only meaningful if the
  /// overlap-scan-then-insert in acquire() is atomic.
  mutable sync::Mutex mu_;
  /// Hashed per-record claim index: acquire touches exactly the bucket of
  /// the record it declares, so the scan under mu_ is O(claims on that
  /// record) instead of O(records × claims) — the table mutex is the one
  /// lock every threaded set_range crosses, and a linear record scan there
  /// would serialize the whole frontend on cold-cache pointer chasing.
  /// Claims within a record stay unordered (a handful of ranges each).
  /// Only records with a live claim have an entry, so release() scans
  /// what is claimed, not every record ever claimed.
  using RecordMap = std::unordered_map<std::uint32_t, std::vector<Claim>>;
  RecordMap records_ PERSEAS_GUARDED_BY(mu_);
  /// Entries release() emptied, claim vector and all, kept for the next
  /// record a transaction claims, so the steady state allocates nothing.
  /// Capacity covers every entry ever made: release() is noexcept.
  std::vector<RecordMap::node_type> spare_ PERSEAS_GUARDED_BY(mu_);
};

}  // namespace perseas::core
