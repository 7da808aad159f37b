// The remote undo log of one PERSEAS database.
//
// A single append-only log per database, replicated into every mirror's
// undo segment.  Entries are self-delimiting ([UndoEntryHeader][padded
// before-image]) and tagged with the id of the transaction that wrote
// them, so the log sub-allocates tagged regions for several concurrently
// open transactions: eager pushes from different contexts interleave at
// the shared tail, and recovery attributes each entry to its transaction
// by id.  The commit announcement stores {txn_id, tail} — recovery parses
// (and checksums) every entry up to the announced tail, then rolls back
// exactly the entries of the transactions whose commit flag was never
// cleared, newest-first by transaction id.
//
// Growth re-serializes the already-pushed entries of every open
// transaction into a doubled segment (a new generation published through
// the meta header), preserving per-transaction entry order; with one
// transaction open this is byte-identical to the historical single-txn
// grow path.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/event_registry.hpp"
#include "core/mirror_set.hpp"
#include "core/perseas_config.hpp"
#include "core/sync.hpp"
#include "core/txn_context.hpp"
#include "netram/cluster.hpp"
#include "netram/remote_memory.hpp"

namespace perseas::core {

struct MetaHeader;
struct UndoEntryHeader;
class TxnObserver;

/// The undo-log capacity after doubling `current` until it holds
/// `required` bytes.  Throws OutOfRemoteMemory instead of wrapping when the
/// doubling would overflow (a request no mirror could ever satisfy).
[[nodiscard]] std::uint64_t next_undo_capacity(std::uint64_t current, std::uint64_t required);

/// CRC-32C over an undo entry's payload fields and before-image (the magic
/// and the checksum slot itself are excluded).  Shared by serialization
/// and the recovery scan; check::TxnValidator recomputes it independently.
[[nodiscard]] std::uint32_t undo_entry_checksum(const UndoEntryHeader& hdr,
                                                std::span<const std::byte> image);

class UndoLog {
 public:
  /// References must outlive the log; `stats` receives the byte/op/growth
  /// counters.
  UndoLog(netram::Cluster& cluster, netram::RemoteMemoryClient& client,
          const PerseasConfig& config, PerseasStats& stats);

  UndoLog(const UndoLog&) = delete;
  UndoLog& operator=(const UndoLog&) = delete;

  [[nodiscard]] std::uint64_t gen() const noexcept {
    sync::LockGuard lock(mu_);
    return gen_;
  }
  [[nodiscard]] std::uint64_t capacity() const noexcept {
    sync::LockGuard lock(mu_);
    return capacity_;
  }
  /// Bytes occupied by pushed entries (the value the commit announcement
  /// carries: recovery parses exactly this prefix).
  [[nodiscard]] std::uint64_t tail() const noexcept {
    sync::LockGuard lock(mu_);
    return tail_;
  }

  void set_capacity(std::uint64_t capacity) noexcept {
    sync::LockGuard lock(mu_);
    capacity_ = capacity;
  }
  /// Adopts the generation + capacity of a recovered segment.
  void attach(std::uint64_t gen, std::uint64_t capacity) noexcept {
    sync::LockGuard lock(mu_);
    gen_ = gen;
    capacity_ = capacity;
    tail_ = 0;
  }
  /// Truncates the log (legal only while no pushed entry is live: the
  /// first begin with no other transaction open, or the start of a lazy
  /// commit — lazy mode pushes only inside the synchronous commit itself).
  void reset_tail() noexcept {
    sync::LockGuard lock(mu_);
    if (tail_ != 0) {
      cluster_->flight().record(EventKind::kUndoTruncate, 0, tail_);
    }
    tail_ = 0;
  }

  /// Appends one serialized undo entry (header + padded image) for txn
  /// `txn_id` to `out`.
  void serialize(const UndoImage& u, std::uint64_t txn_id, std::vector<std::byte>& out) const;

  /// Grows the log if `needed` more bytes would overflow it, re-logging
  /// the already-pushed entries of every context in `open` (figure-3 order
  /// per context) into the doubled segment.
  void ensure_capacity(MirrorSet& mirrors, std::uint64_t needed,
                       std::span<const std::unique_ptr<TxnContext>> open);

  /// Pushes one entry at the shared tail to every mirror (figure 3, step
  /// 2), cross-checking through `observer` when installed, and advances
  /// the tail.  The caller must have ensured capacity.
  void push(MirrorSet& mirrors, const UndoImage& u, std::uint64_t txn_id,
            netram::StreamHint hint, TxnObserver* observer);

  // --- recovery --------------------------------------------------------

  /// One entry the recovery scan collected for rollback.
  struct RollbackEntry {
    std::uint32_t record = 0;
    std::uint64_t offset = 0;
    std::uint64_t body_pos = 0;  ///< before-image position inside the log bytes
    std::uint64_t size = 0;
    std::uint64_t txn_id = 0;
  };
  /// Per-transaction scan tally, the heart of recovery's structured
  /// self-report: how many of this transaction's entries the scan parsed,
  /// how many were collected for rollback (the doomed transaction), and
  /// how many were discarded (committed or never-propagated neighbours).
  struct TxnScanTally {
    std::uint64_t txn_id = 0;
    std::uint64_t scanned = 0;
    std::uint64_t applied = 0;
    std::uint64_t discarded = 0;
  };
  struct ScanResult {
    /// Highest transaction id ever logged (keeps ids monotonic across
    /// incarnations).
    std::uint64_t max_txn = 0;
    /// Entries of the doomed (announced, never-cleared) transaction, in
    /// log order.
    std::vector<RollbackEntry> rollbacks;
    /// Entries parsed and checksummed cleanly (prefix + clean tail).
    std::uint64_t entries_scanned = 0;
    /// Log bytes those entries occupy.
    std::uint64_t bytes_scanned = 0;
    /// Per-transaction tallies in first-seen order.
    std::vector<TxnScanTally> per_txn;
  };

  /// Scans a mirror's undo-log bytes.  When a commit was in flight
  /// (hdr.propagating_txn != 0), every entry inside the announced
  /// [0, hdr.propagating_undo_bytes) prefix must parse and checksum
  /// cleanly — including entries of *other* (in-flight, never-propagated)
  /// transactions interleaved at the shared tail — or RecoveryError is
  /// thrown; only the doomed transaction's entries are collected for
  /// rollback.  Beyond the prefix the scan stops at the first invalid
  /// entry (the clean end of the log).
  static ScanResult scan(std::span<const std::byte> log, const MetaHeader& hdr,
                         std::span<const std::uint64_t> sizes);

  /// Applies before-images to mirror `m`'s database segments, newest-first
  /// by transaction id; within one transaction, overlapping (legacy
  /// one-entry-per-set_range) logs are applied newest-first one store
  /// each, disjoint (coalesced) logs forward, gathered per record.
  void apply_rollbacks(MirrorSet::Mirror& m, std::span<const RollbackEntry> rollbacks,
                       std::span<const std::byte> log) const;

 private:
  void grow(MirrorSet& mirrors, std::uint64_t needed_bytes,
            std::span<const std::unique_ptr<TxnContext>> open) PERSEAS_REQUIRES(mu_);

  netram::Cluster* cluster_;
  netram::RemoteMemoryClient* client_;
  const PerseasConfig* config_;
  PerseasStats* stats_;

  /// Guards the shared log cursor: several open transactions' eager pushes
  /// interleave at tail_, and growth republishes gen_/capacity_ together.
  mutable sync::Mutex mu_;
  std::uint64_t gen_ PERSEAS_GUARDED_BY(mu_) = 0;
  std::uint64_t capacity_ PERSEAS_GUARDED_BY(mu_) = 0;
  std::uint64_t tail_ PERSEAS_GUARDED_BY(mu_) = 0;
  /// push()'s serialized entry (storage reused from push to push).
  std::vector<std::byte> entry_ PERSEAS_GUARDED_BY(mu_);
};

}  // namespace perseas::core
