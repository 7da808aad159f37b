// PERSEAS: a user-level transaction library over reliable network RAM.
//
// This is the paper's primary contribution.  A database of records lives in
// the local node's main memory and is mirrored in the memory of one or more
// remote nodes (on independent power supplies).  Transactions are made
// atomic and recoverable with three memory copies and no disk access
// (paper figure 3):
//
//   1. set_range   copies the before-image into a local undo log and pushes
//                  it to the remote undo log with one SCI store burst;
//   2. the application updates the mapped database in place;
//   3. commit      stores the transaction id into the remote metadata
//                  ("propagation in progress"), copies every declared range
//                  into the remote database image, and clears the flag —
//                  the clearing store is the commit point.
//
// Abort is a purely local memory copy.  After the local machine dies,
// recover() reconnects to the mirror's segments by key, rolls the remote
// database back with the remote undo log if a commit was in flight, and
// rebuilds the database on any workstation of the network.
//
// The Perseas class is the orchestration layer: it owns the protocol's
// *sequencing* (charge order, observer callbacks, failure-injection
// points) and delegates the state to four components —
//
//   core/txn_context.hpp    per-transaction state (several may be open),
//   core/undo_log.hpp       the shared tagged remote undo log,
//   core/mirror_set.hpp     remote segment lifecycle and data pushes,
//   core/cc_policy.hpp      pluggable concurrency control over the range
//                           claim table (first-writer-wins, wait-die,
//                           validate-at-commit; TxnConflict on rejection).
//
// Public API mapping to the paper's interface:
//   PERSEAS_init               -> Perseas constructor
//   PERSEAS_malloc             -> Perseas::persistent_malloc
//   PERSEAS_init_remote_db     -> Perseas::init_remote_db
//   PERSEAS_begin_transaction  -> Perseas::begin_transaction
//   PERSEAS_set_range          -> Transaction::set_range
//   PERSEAS_commit_transaction -> Transaction::commit
//   PERSEAS_abort_transaction  -> Transaction::abort
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/cc_policy.hpp"
#include "core/conflict_table.hpp"
#include "core/errors.hpp"
#include "core/layout.hpp"
#include "core/mirror_set.hpp"
#include "core/perseas_config.hpp"
#include "core/phase_scope.hpp"
#include "core/range_set.hpp"
#include "core/sync.hpp"
#include "core/txn_context.hpp"
#include "core/txn_hooks.hpp"
#include "core/undo_log.hpp"
#include "netram/cluster.hpp"
#include "netram/remote_memory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perseas::core {

/// True when `p` satisfies `align` (a power of two).  RecordHandle's typed
/// views check this before reinterpret_cast: dereferencing a misaligned
/// pointer is undefined behaviour, not a slow path.
[[nodiscard]] inline bool is_aligned_for(const void* p, std::size_t align) noexcept {
  return (reinterpret_cast<std::uintptr_t>(p) & (align - 1)) == 0;
}

class Perseas;

/// Handle to one persistent record (the unit of PERSEAS_malloc).  Cheap
/// value type identified by index; remains meaningful across recovery
/// (fetch a fresh handle from the recovered instance with record()).
class RecordHandle {
 public:
  RecordHandle() = default;

  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] bool valid() const noexcept { return owner_ != nullptr; }

  /// The live local mapping of this record.  Writes to it inside a
  /// transaction must be covered by a prior set_range.
  [[nodiscard]] std::span<std::byte> bytes() const;

  /// Typed view; T must be trivially copyable, fit the record, and be
  /// satisfiable by the record's alignment (the arena aligns every record
  /// to 64 bytes, so only over-aligned types can fail).
  template <typename T>
  [[nodiscard]] T& as() const {
    static_assert(std::is_trivially_copyable_v<T>);
    auto b = bytes();
    if (sizeof(T) > b.size()) throw UsageError("RecordHandle::as: type larger than record");
    if (!is_aligned_for(b.data(), alignof(T))) {
      throw UsageError("RecordHandle::as: record storage is misaligned for this type");
    }
    return *reinterpret_cast<T*>(b.data());
  }

  /// Typed array view over the whole record (same alignment contract).
  template <typename T>
  [[nodiscard]] std::span<T> array() const {
    static_assert(std::is_trivially_copyable_v<T>);
    auto b = bytes();
    if (!is_aligned_for(b.data(), alignof(T))) {
      throw UsageError("RecordHandle::array: record storage is misaligned for this type");
    }
    return {reinterpret_cast<T*>(b.data()), b.size() / sizeof(T)};
  }

 private:
  friend class Perseas;
  RecordHandle(Perseas* owner, std::uint32_t index, std::uint64_t size)
      : owner_(owner), index_(index), size_(size) {}

  Perseas* owner_ = nullptr;
  std::uint32_t index_ = 0;
  std::uint64_t size_ = 0;
};

/// An open transaction.  Move-only RAII: destroying an active transaction
/// aborts it.  Several transactions may be open concurrently on one
/// Perseas instance as long as their write sets are disjoint — set_range
/// raises TxnConflict when two open transactions declare overlapping
/// ranges (which loser, and whether commit additionally validates reads,
/// is the concurrency-control policy's call — PerseasConfig::cc_policy);
/// the loser aborts and retries.
class Transaction {
 public:
  Transaction(Transaction&& other) noexcept;
  Transaction& operator=(Transaction&& other) noexcept;
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;
  ~Transaction();

  /// Declares [offset, offset+size) of `record` as about to be updated;
  /// logs its before-image locally and (eager mode) on every mirror.
  /// Throws TxnConflict — with nothing logged or pushed — when the range
  /// overlaps another open transaction's declarations.
  void set_range(const RecordHandle& record, std::uint64_t offset, std::uint64_t size);
  void set_range(std::uint32_t record, std::uint64_t offset, std::uint64_t size);

  /// Declares [offset, offset+size) of `record` as read by this
  /// transaction.  Plain local bookkeeping — no claim, no before-image, no
  /// simulated charge — consulted only by the validate-at-commit policy,
  /// whose commit intersects the read set with write sets committed since
  /// begin and raises TxnConflict (AbortReason::kValidationFailed) on
  /// overlap.  Under the declare-time policies the set is tracked but
  /// never judged, so workloads can declare reads unconditionally.
  void read_range(const RecordHandle& record, std::uint64_t offset, std::uint64_t size);
  void read_range(std::uint32_t record, std::uint64_t offset, std::uint64_t size);

  void commit();
  void abort();

  [[nodiscard]] bool active() const noexcept { return owner_ != nullptr; }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  friend class Perseas;
  Transaction(Perseas* owner, std::uint64_t id) : owner_(owner), id_(id) {}

  Perseas* owner_ = nullptr;
  std::uint64_t id_ = 0;
};

/// Structured self-report of the last recovery (attach_recover) run: which
/// transaction the metadata announced, whether the announced undo prefix
/// parsed and checksummed cleanly, and what the scan did with each
/// transaction's entries.  Mirrored into the flight recorder (recover.*
/// events) and exported as perseas_recovery_* metrics.
struct RecoveryReport {
  bool ran = false;               ///< attach_recover reached the undo scan
  std::uint64_t announced_txn = 0;  ///< hdr.propagating_txn (0 = clean shutdown)
  bool checksum_ok = false;       ///< announced prefix parsed + checksummed cleanly
  std::uint64_t entries_scanned = 0;
  std::uint64_t bytes_scanned = 0;
  std::uint64_t entries_applied = 0;    ///< rolled back (the doomed transaction)
  std::uint64_t entries_discarded = 0;  ///< committed / never-announced neighbours
  /// Per-transaction scan tallies in first-seen order.
  std::vector<UndoLog::TxnScanTally> per_txn;
};

class Perseas {
 public:
  /// PERSEAS_init: attaches to the cluster on `local` and prepares mirror
  /// state on every server in `mirrors` (>= 1, hosts distinct from local).
  Perseas(netram::Cluster& cluster, netram::NodeId local,
          const std::vector<netram::RemoteMemoryServer*>& mirrors, PerseasConfig config = {});

  /// Tag for the recovery constructor: builds the instance directly in
  /// recovered state (what the static recover() returns).  Lets callers
  /// construct in place — std::optional<Perseas>::emplace, make_unique —
  /// now that the instance is pinned (see the deleted moves below).
  struct RecoverTag {};
  Perseas(RecoverTag, netram::Cluster& cluster, netram::NodeId new_local,
          const std::vector<netram::RemoteMemoryServer*>& servers, PerseasConfig config = {});

  /// Not movable: RecordHandle and Transaction hold raw Perseas* back
  /// pointers, so a move would leave every outstanding handle dangling at
  /// the old address (and the components hold sibling references).  The
  /// instance is pinned; hold it in an optional or unique_ptr to relocate
  /// ownership.
  Perseas(Perseas&&) = delete;
  Perseas& operator=(Perseas&&) = delete;
  Perseas(const Perseas&) = delete;
  Perseas& operator=(const Perseas&) = delete;
  /// Flushes environment-variable-owned observability (PERSEAS_TRACE /
  /// PERSEAS_METRICS dumps); no-op otherwise.
  ~Perseas();

  /// PERSEAS_malloc: allocates a persistent record of `size` bytes in local
  /// memory and reserves its mirror segments.  Zero-initialized.
  RecordHandle persistent_malloc(std::uint64_t size);

  /// PERSEAS_init_remote_db: pushes the metadata directory and the current
  /// contents of every not-yet-mirrored record to all mirrors.  Must be
  /// called after the records are given their initial values and before the
  /// first transaction.
  void init_remote_db();

  /// PERSEAS_begin_transaction.  May be called while other transactions
  /// are open: each call returns an independent Transaction whose state
  /// lives in its own TxnContext.
  Transaction begin_transaction();

  [[nodiscard]] std::uint32_t record_count() const noexcept {
    sync::LockGuard lock(mu_);
    return static_cast<std::uint32_t>(records_.size());
  }
  [[nodiscard]] RecordHandle record(std::uint32_t index);
  [[nodiscard]] netram::NodeId local_node() const noexcept { return local_; }
  [[nodiscard]] std::uint32_t mirror_count() const noexcept {
    return static_cast<std::uint32_t>(mirror_set_.size());
  }
  /// The accumulated counters.  The reference escapes mu_ by design: it is
  /// read by tests and exporters between transactions, when no writer runs.
  [[nodiscard]] const PerseasStats& stats() const noexcept {
    sync::LockGuard lock(mu_);
    return stats_;
  }
  [[nodiscard]] const PerseasConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool in_transaction() const noexcept {
    sync::LockGuard lock(mu_);
    return !open_.empty();
  }
  /// Number of currently open transactions.
  [[nodiscard]] std::size_t open_transactions() const noexcept {
    sync::LockGuard lock(mu_);
    return open_.size();
  }

  /// True when any transaction observer (validator and/or tracer) is
  /// installed; see PerseasConfig::validate_writes / trace / metrics.
  [[nodiscard]] bool validating() const noexcept { return observer_ != nullptr; }

  /// Folds PerseasStats (plus undo-log occupancy and observer counters)
  /// into `reg` as perseas_* metrics labelled db="<name>".  Call once per
  /// instance per registry, right before serialization: the stats struct
  /// stays the single source of truth and the registry is a view of it.
  void export_metrics(obs::MetricsRegistry& reg) const;
  /// The installed observer, or nullptr (tests downcast to
  /// check::TxnValidator for its extended accessors).
  [[nodiscard]] TxnObserver* txn_observer() noexcept { return observer_.get(); }
  /// Observer counters; all-zero when no observer is installed, which is
  /// how tests assert the validator's strict zero-overhead-when-off
  /// property (no snapshots taken, nothing tracked).
  [[nodiscard]] TxnObserverStats validator_stats() const noexcept {
    return observer_ ? observer_->stats() : TxnObserverStats{};
  }

  /// Rebuilds mirror `index` (whose server lost its exports in a crash and
  /// has been restarted) from the local database: re-exports all segments
  /// and pushes metadata and record contents.
  void rebuild_mirror(std::uint32_t index);

  /// Graceful shutdown (paper section 1: a scheduled outage "can gracefully
  /// shut down").  Pushes a final consistent image to every mirror and
  /// detaches; the database remains recoverable by name.  With
  /// `decommission` it instead frees every remote segment — the database
  /// ceases to exist.  The instance is unusable afterwards except for
  /// destruction: every library entry point (including a second shutdown)
  /// raises UsageError.
  void shutdown(bool decommission = false);

  [[nodiscard]] bool is_shut_down() const noexcept {
    sync::LockGuard lock(mu_);
    return shut_down_;
  }

  /// The self-report of the recovery that built this instance; `ran` is
  /// false for instances constructed fresh (no recovery happened).
  [[nodiscard]] RecoveryReport recovery_report() const {
    sync::LockGuard lock(mu_);
    return recovery_;
  }

  /// Recovers the database onto `new_local` (any workstation of the
  /// network) from the first reachable mirror in `servers`.  Rolls the
  /// mirror's database back if a commit was propagating when the primary
  /// died, then pulls every record into local memory and re-synchronizes
  /// any additional reachable mirrors.  Equivalent to constructing with
  /// RecoverTag (use the tag to emplace into an optional or unique_ptr).
  static Perseas recover(netram::Cluster& cluster, netram::NodeId new_local,
                         const std::vector<netram::RemoteMemoryServer*>& servers,
                         PerseasConfig config = {});

 private:
  friend class Transaction;
  friend class RecordHandle;

  /// Tag for the private bare-attach constructor (no segments touched).
  struct AttachTag {};
  Perseas(AttachTag, netram::Cluster& cluster, netram::NodeId local, PerseasConfig config);
  /// The recovery body: connect to the first reachable mirror exporting
  /// the database, roll back, pull records, re-sync extra mirrors.
  void attach_recover(const std::vector<netram::RemoteMemoryServer*>& servers);

  /// RecordHandle::bytes' entry point: locks and forwards.
  [[nodiscard]] std::span<std::byte> record_bytes(std::uint32_t index);
  [[nodiscard]] std::span<std::byte> record_bytes_locked(std::uint32_t index)
      PERSEAS_REQUIRES(mu_);
  /// rebuild_mirror's body, shared with the recovery re-sync loop.
  void rebuild_mirror_locked(std::uint32_t index) PERSEAS_REQUIRES(mu_);
  /// Opens `phase` of `txn` on this instance's ledger, clock, stats and
  /// observer (core/phase_scope.hpp).
  [[nodiscard]] PhaseScope open_phase(std::uint64_t txn, TxnPhase phase) PERSEAS_REQUIRES(mu_) {
    return PhaseScope(cluster_->ledger(), cluster_->clock(), stats_, observer_.get(), txn, phase);
  }
  /// Builds the record views handed to the observer (observer installed
  /// only: never called on the validation-off path).
  [[nodiscard]] std::vector<TxnRecordView> observer_views() PERSEAS_REQUIRES(mu_);
  /// Installs the configured observers: check::TxnValidator when
  /// validate_writes (or PERSEAS_VALIDATE_WRITES) asks for it,
  /// obs::TxnTracer when trace/metrics (or PERSEAS_TRACE/PERSEAS_METRICS)
  /// do, both behind a TxnObserverMux when they coexist.
  void maybe_install_observers();
  /// Dumps environment-variable-owned trace/metrics (called by ~Perseas).
  void flush_owned_observability() noexcept;

  /// The open transaction with this id, or nullptr.
  [[nodiscard]] TxnContext* find_context(std::uint64_t txn_id) noexcept PERSEAS_REQUIRES(mu_);
  /// Closes `txn_id`'s context (kept for reuse by a later begin) and drops
  /// its conflict-table claims (commit/abort).
  void close_context(std::uint64_t txn_id) noexcept PERSEAS_REQUIRES(mu_);

  // Transaction backends.  The public-facing three are thin anomaly
  // funnels: any PerseasError escaping the protocol body is noted on the
  // flight recorder (which dumps the blackbox when PERSEAS_BLACKBOX is
  // set) before it propagates.  TxnConflict is exempt — a first-writer-
  // wins loss is protocol behaviour, not an anomaly.
  void txn_set_range(std::uint64_t txn_id, std::uint32_t record, std::uint64_t offset,
                     std::uint64_t size);
  /// Transaction::read_range's backend: records the range in the context's
  /// read set.  No funnel wrapper — it charges nothing, stores nothing,
  /// and can only throw UsageError.
  void txn_read_range(std::uint64_t txn_id, std::uint32_t record, std::uint64_t offset,
                      std::uint64_t size);
  void txn_commit(std::uint64_t txn_id);
  void txn_abort(std::uint64_t txn_id);
  void txn_set_range_impl(std::uint64_t txn_id, std::uint32_t record, std::uint64_t offset,
                          std::uint64_t size);
  void txn_commit_impl(std::uint64_t txn_id);
  void txn_abort_impl(std::uint64_t txn_id);

  netram::Cluster* cluster_ = nullptr;
  netram::NodeId local_ = 0;
  PerseasConfig config_;
  netram::RemoteMemoryClient client_;

  /// The orchestration lock: every library entry point (transaction
  /// backends, allocation, shutdown, recovery) runs under it, so the
  /// members below mutate atomically per operation.  Lock order is always
  /// Perseas::mu_ first, component mutexes second; components never call
  /// back into Perseas.
  mutable sync::Mutex mu_;
  PerseasStats stats_ PERSEAS_GUARDED_BY(mu_);

  // The components (construction order matters: they hold references to
  // client_, config_ and stats_ above).  They guard their own state; the
  // stats_ reference they mutate through is covered by mu_ because every
  // component call is downstream of an entry point holding it.
  MirrorSet mirror_set_;
  UndoLog undo_log_;
  /// The concurrency-control policy (PerseasConfig::cc_policy, overridable
  /// via PERSEAS_CC).  Owns the range claim table; consulted at begin /
  /// declare / commit-validate / release.  Pure decision logic: every
  /// observable consequence (stats, charges, flight events, failure
  /// points, throws) happens here in the orchestration layer.
  std::unique_ptr<CcPolicy> cc_;

  std::vector<LocalRecord> records_ PERSEAS_GUARDED_BY(mu_);
  /// Open transactions in begin order; each owns its TxnContext at a
  /// stable address (Transaction handles name them by id).
  std::vector<std::unique_ptr<TxnContext>> open_ PERSEAS_GUARDED_BY(mu_);
  /// Closed contexts, reused (storage and all) by the next begins; never
  /// more than the most transactions ever open at once.
  std::vector<std::unique_ptr<TxnContext>> closed_ PERSEAS_GUARDED_BY(mu_);
  /// set_range's before-images between the local copy and the remote push
  /// (reused storage; only the pushed ones join the context's undo list).
  std::vector<UndoImage> staged_ PERSEAS_GUARDED_BY(mu_);

  bool shut_down_ PERSEAS_GUARDED_BY(mu_) = false;
  RecoveryReport recovery_ PERSEAS_GUARDED_BY(mu_);
  /// PERSEAS_MC_SEED_BUG=skip-flag-clear (model-checker self-test only):
  /// deliberately skip the commit-point store so perseas-mc can prove it
  /// catches real protocol violations.
  bool mc_skip_flag_clear_ = false;
  std::uint64_t txn_counter_ PERSEAS_GUARDED_BY(mu_) = 0;

  /// Installed by maybe_install_observers; hooks fire only when non-null.
  std::unique_ptr<TxnObserver> observer_;

  /// Owned only on the PERSEAS_TRACE / PERSEAS_METRICS environment-variable
  /// path (config pointers take precedence and are never owned); flushed to
  /// the env-given paths by the destructor.
  std::unique_ptr<obs::TraceRecorder> owned_trace_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  std::string owned_trace_path_;
  std::string owned_metrics_path_;
};

}  // namespace perseas::core
