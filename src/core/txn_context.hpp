// Per-transaction state of the PERSEAS protocol.
//
// Every begin_transaction() opens one TxnContext (a closed one is reused,
// storage and all); the Transaction handle the caller holds names it by
// id.  All state that used to live on the Perseas instance while "the"
// transaction was open — the local undo images, the merged write set and
// the raw declared-byte counter — lives here instead, so several
// transactions can be open concurrently on one database.  The context is
// plain local bookkeeping: the shared remote undo log (core/undo_log.hpp)
// and the mirror images (core/mirror_set.hpp) stay per-database.
//
// Ownership.  Everything the context holds is touched under Perseas::mu_
// except the read set, which belongs to the thread holding the
// Transaction: read_range records into it with no lock at all.  The
// fields another thread may read while that happens — the id (checked by
// a lock-free read_range, rewritten when a closed context is reused) and
// the read count (summed by Perseas::stats()) — are relaxed atomics.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/range_set.hpp"

namespace perseas::core {

/// One persistent record's local mapping (the unit of persistent_malloc).
struct LocalRecord {
  std::uint64_t local_offset = 0;
  std::uint64_t size = 0;
  bool mirrored = false;
};

/// One before-image captured by set_range (figure 3, step 1): the bytes of
/// [offset, offset+size) of `record` as they were before the transaction's
/// covered writes.  Restored newest-first on abort; serialized into the
/// remote undo log for crash rollback.
struct UndoImage {
  std::uint32_t record = 0;
  std::uint64_t offset = 0;
  std::vector<std::byte> before;
};

class TxnContext {
 public:
  /// Opens the context for transaction `id` over the database's record
  /// table, which stays fixed while any transaction is open (allocation,
  /// init_remote_db and shutdown refuse to run then).
  TxnContext(std::uint64_t id, std::span<const LocalRecord> records)
      : id_(id), records_(records) {}

  /// The open transaction's id; 0 once the context is closed.
  [[nodiscard]] std::uint64_t id() const noexcept { return id_.load(std::memory_order_relaxed); }

  /// The record table the transaction was opened over.
  [[nodiscard]] std::span<const LocalRecord> records() const noexcept { return records_; }

  /// Reopens this closed context for transaction `id`, as if freshly
  /// constructed, but keeping its storage: vector capacity, the per-record
  /// range vectors and the before-image buffers are reused by the next
  /// transaction instead of going back to the heap.
  void reset(std::uint64_t id, std::span<const LocalRecord> records);

  /// Marks the context closed (commit or abort).  A Transaction handle
  /// that outlives its context's close then sees id() != its own id.
  void close() noexcept { id_.store(0, std::memory_order_relaxed); }

  /// Merges a set_range declaration into this transaction's per-record
  /// union and returns the sub-ranges not previously covered (ascending,
  /// possibly empty; valid until the next declare) — the bytes that still
  /// need before-images.  Also advances the raw declared-byte counter.
  const std::vector<ByteRange>& declare(std::uint32_t record, std::uint64_t offset,
                                        std::uint64_t size);

  /// Merges a read_range declaration into this transaction's read set
  /// and counts it.  Reads are plain bookkeeping — no before-image, no
  /// claim, no charge; only the validate-at-commit policy
  /// (core/cc_policy.hpp) ever consults the set, intersecting it with
  /// write sets committed since begin.
  void declare_read(std::uint32_t record, std::uint64_t offset, std::uint64_t size);

  /// read_range declarations since the context was opened.
  [[nodiscard]] std::uint64_t read_ranges() const noexcept {
    return read_ranges_.load(std::memory_order_relaxed);
  }

  /// The write set: per touched record (first-touch order), the merged,
  /// sorted union of declared intervals.  Commit propagates these.
  [[nodiscard]] const std::vector<std::pair<std::uint32_t, std::vector<ByteRange>>>&
  write_set() const noexcept {
    return write_set_;
  }

  /// The read set, same shape as write_set(): per record, the merged union
  /// of read_range declarations.
  [[nodiscard]] const std::vector<std::pair<std::uint32_t, std::vector<ByteRange>>>&
  read_set() const noexcept {
    return read_set_;
  }

  /// Local undo images in declaration order.  The prefix already pushed to
  /// the mirrors is tracked by pushed_entries() (eager mode pushes each
  /// image inside set_range; lazy mode pushes them all inside commit).
  [[nodiscard]] std::vector<UndoImage>& undo() noexcept { return undo_; }
  [[nodiscard]] const std::vector<UndoImage>& undo() const noexcept { return undo_; }

  /// An empty buffer for a new UndoImage::before, recycled from an
  /// earlier transaction of this context when one is spare.
  [[nodiscard]] std::vector<std::byte> take_buffer();

  [[nodiscard]] std::size_t pushed_entries() const noexcept { return pushed_entries_; }
  void set_pushed_entries(std::size_t n) noexcept { pushed_entries_ = n; }

  [[nodiscard]] std::uint64_t declared_bytes() const noexcept { return declared_bytes_; }

 private:
  std::atomic<std::uint64_t> id_;
  std::span<const LocalRecord> records_;
  /// Written only by the transaction's own thread, read by stats().
  std::atomic<std::uint64_t> read_ranges_{0};
  std::vector<UndoImage> undo_;
  std::size_t pushed_entries_ = 0;
  std::vector<std::pair<std::uint32_t, std::vector<ByteRange>>> write_set_;
  std::vector<std::pair<std::uint32_t, std::vector<ByteRange>>> read_set_;
  std::uint64_t declared_bytes_ = 0;
  /// declare()'s result, rebuilt in place by each call.
  std::vector<ByteRange> fresh_;
  /// Storage of earlier transactions, kept for reuse by reset().
  std::vector<std::vector<std::byte>> spare_buffers_;
  std::vector<std::vector<ByteRange>> spare_ranges_;
};

}  // namespace perseas::core
