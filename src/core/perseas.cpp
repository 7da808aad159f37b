#include "core/perseas.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "core/event_registry.hpp"
#include "core/protocol_points.hpp"
#include "obs/flight_recorder.hpp"

namespace perseas::core {

namespace {

/// Size of the 16-byte propagation flag {txn_id, undo_bytes}.
constexpr std::uint64_t kFlagBytes = 2 * sizeof(std::uint64_t);

/// PERSEAS_COALESCE=0 forces coalescing off, any other value forces it on.
/// Unlike the observability variables this one overrides the config — a
/// caller-set `true` is indistinguishable from the default, so the CI
/// ablation legs could not switch it otherwise.
void apply_coalesce_env(PerseasConfig& config) {
  if (const char* v = std::getenv("PERSEAS_COALESCE")) {
    config.coalesce_ranges = std::strcmp(v, "0") != 0;
  }
}

/// PERSEAS_CC=fww|wait-die|validate overrides the configured concurrency-
/// control policy.  Same override-the-config semantics as PERSEAS_COALESCE:
/// the CI model-check legs sweep every policy through one binary, and the
/// mc fixture builds a default config it could not otherwise reach into.
void apply_cc_env(PerseasConfig& config) {
  const char* v = std::getenv("PERSEAS_CC");
  if (v == nullptr) return;
  if (std::strcmp(v, "fww") == 0) {
    config.cc_policy = CcPolicyKind::kFirstWriterWins;
  } else if (std::strcmp(v, "wait-die") == 0) {
    config.cc_policy = CcPolicyKind::kWaitDie;
  } else if (std::strcmp(v, "validate") == 0) {
    config.cc_policy = CcPolicyKind::kValidateAtCommit;
  } else {
    throw UsageError("PERSEAS_CC: unknown policy '" + std::string(v) +
                     "' (expected fww, wait-die or validate)");
  }
}

/// PERSEAS_MC_SEED_BUG=skip-flag-clear plants a deliberate protocol bug —
/// the commit-point store clearing propagating_txn is skipped — so the
/// model checker's self-test can prove it detects and minimizes real
/// violations.  Never set outside `perseas-mc --selftest`.
bool seeded_bug_skip_flag_clear() {
  const char* v = std::getenv("PERSEAS_MC_SEED_BUG");
  return v != nullptr && std::strcmp(v, "skip-flag-clear") == 0;
}

}  // namespace

Perseas::~Perseas() { flush_owned_observability(); }

std::vector<TxnRecordView> Perseas::observer_views() {
  std::vector<TxnRecordView> views;
  views.reserve(records_.size());
  for (std::uint32_t i = 0; i < records_.size(); ++i) {
    views.push_back(TxnRecordView{i, record_bytes_locked(i)});
  }
  return views;
}

Perseas::Perseas(netram::Cluster& cluster, netram::NodeId local,
                 const std::vector<netram::RemoteMemoryServer*>& mirrors, PerseasConfig config)
    : cluster_(&cluster),
      local_(local),
      config_(std::move(config)),
      client_(cluster, local),
      mirror_set_(cluster, client_, local, config_, stats_),
      undo_log_(cluster, client_, config_, stats_) {
  apply_coalesce_env(config_);
  apply_cc_env(config_);
  cc_ = make_cc_policy(config_);
  mc_skip_flag_clear_ = seeded_bug_skip_flag_clear();
  maybe_install_observers();
  if (mirrors.empty()) throw UsageError("Perseas: at least one mirror is required");
  for (auto* server : mirrors) {
    if (server == nullptr) throw UsageError("Perseas: null mirror server");
    if (server->host() == local) {
      throw UsageError("Perseas: a mirror on the local node provides no reliability");
    }
    mirror_set_.add(server, undo_log_.capacity(), undo_log_.gen());
  }
}

Perseas::Perseas(AttachTag, netram::Cluster& cluster, netram::NodeId local, PerseasConfig config)
    : cluster_(&cluster),
      local_(local),
      config_(std::move(config)),
      client_(cluster, local),
      mirror_set_(cluster, client_, local, config_, stats_),
      undo_log_(cluster, client_, config_, stats_) {
  apply_coalesce_env(config_);
  apply_cc_env(config_);
  cc_ = make_cc_policy(config_);
  mc_skip_flag_clear_ = seeded_bug_skip_flag_clear();
  maybe_install_observers();
}

Perseas::Perseas(RecoverTag, netram::Cluster& cluster, netram::NodeId new_local,
                 const std::vector<netram::RemoteMemoryServer*>& servers, PerseasConfig config)
    : Perseas(AttachTag{}, cluster, new_local, std::move(config)) {
  attach_recover(servers);
}

RecordHandle Perseas::persistent_malloc(std::uint64_t size) {
  sync::LockGuard lock(mu_);
  if (shut_down_) throw UsageError("persistent_malloc: instance was shut down");
  if (!open_.empty()) throw UsageError("persistent_malloc: not allowed inside a transaction");
  if (size == 0) throw UsageError("persistent_malloc: zero-sized record");
  if (records_.size() >= config_.max_records) {
    throw UsageError("persistent_malloc: metadata directory full (max_records=" +
                     std::to_string(config_.max_records) + ")");
  }
  cluster_->charge_cpu(local_, cluster_->profile().library.table_update);

  const auto index = static_cast<std::uint32_t>(records_.size());
  const auto local_offset = cluster_->node(local_).allocator().allocate(size);
  if (!local_offset) {
    throw PerseasError("persistent_malloc: local arena exhausted");
  }
  auto local_span = cluster_->node(local_).mem(*local_offset, size);
  std::memset(local_span.data(), 0, local_span.size());
  cluster_->charge_local_memcpy(local_, size);

  // Reserve the mirror image on every mirror now, so init_remote_db cannot
  // fail for lack of memory after the application populated its records.
  for (auto& m : mirror_set_.mirrors()) {
    try {
      mirror_set_.reserve_record(m, index, size, "persistent_malloc");
    } catch (const OutOfRemoteMemory&) {
      cluster_->node(local_).allocator().free(*local_offset);
      throw;
    }
  }
  records_.push_back(LocalRecord{*local_offset, size, false});
  return RecordHandle{this, index, size};
}

std::span<std::byte> Perseas::record_bytes(std::uint32_t index) {
  sync::LockGuard lock(mu_);
  return record_bytes_locked(index);
}

std::span<std::byte> Perseas::record_bytes_locked(std::uint32_t index) {
  if (index >= records_.size()) throw UsageError("record: index out of range");
  const auto& r = records_[index];
  return cluster_->node(local_).mem(r.local_offset, r.size);
}

RecordHandle Perseas::record(std::uint32_t index) {
  sync::LockGuard lock(mu_);
  if (index >= records_.size()) throw UsageError("record: index out of range");
  return RecordHandle{this, index, records_[index].size};
}

void Perseas::init_remote_db() {
  sync::LockGuard lock(mu_);
  if (shut_down_) throw UsageError("init_remote_db: instance was shut down");
  if (!open_.empty()) throw UsageError("init_remote_db: not allowed inside a transaction");
  for (auto& m : mirror_set_.mirrors()) {
    mirror_set_.push_meta(m, records_, undo_log_.gen());
    for (std::uint32_t i = 0; i < records_.size(); ++i) {
      if (!records_[i].mirrored) mirror_set_.push_record(m, i, records_);
    }
  }
  for (auto& r : records_) r.mirrored = true;
}

void Perseas::shutdown(bool decommission) {
  sync::LockGuard lock(mu_);
  if (!open_.empty()) throw UsageError("shutdown: a transaction is still active");
  if (shut_down_) throw UsageError("shutdown: instance was already shut down");
  for (auto& m : mirror_set_.mirrors()) {
    if (cluster_->node(m.server->host()).crashed()) continue;
    if (decommission) {
      mirror_set_.free_segments(m);
    } else {
      // Leave a final consistent image behind: every record's current
      // content plus clean metadata (no propagation in flight).
      for (std::uint32_t i = 0; i < records_.size(); ++i) {
        mirror_set_.push_record(m, i, records_);
      }
      mirror_set_.push_meta(m, records_, undo_log_.gen());
    }
  }
  for (const auto& r : records_) {
    cluster_->node(local_).allocator().free(r.local_offset);
  }
  records_.clear();
  mirror_set_.clear();
  shut_down_ = true;
}

Transaction Perseas::begin_transaction() {
  sync::LockGuard lock(mu_);
  if (shut_down_) throw UsageError("begin_transaction: instance was shut down");
  const bool all_mirrored =
      std::all_of(records_.begin(), records_.end(), [](const LocalRecord& r) { return r.mirrored; });
  if (!all_mirrored) {
    throw UsageError("begin_transaction: call init_remote_db() after persistent_malloc");
  }
  const PhaseScope begin_phase = open_phase(txn_counter_ + 1, TxnPhase::kBegin);
  cluster_->charge_cpu(local_, cluster_->profile().library.txn_begin);
  // The shared log's tail can only rewind when no pushed entry is live;
  // with one transaction at a time this resets at every begin, exactly the
  // historical behaviour.
  if (open_.empty()) undo_log_.reset_tail();
  ++txn_counter_;
  // Begin order doubles as the policy timestamp (wait-die age, OCC begin
  // snapshot); ids are never reused, so the order is total.
  cc_->on_begin(txn_counter_);
  if (closed_.empty()) {
    open_.push_back(std::make_unique<TxnContext>(txn_counter_));
    // close_context() is noexcept: room for every context it may park.
    closed_.reserve(open_.size());
  } else {
    open_.push_back(std::move(closed_.back()));
    closed_.pop_back();
    open_.back()->reset(txn_counter_);
  }
  stats_.max_open_txns = std::max<std::uint64_t>(stats_.max_open_txns, open_.size());
  cluster_->flight().record(EventKind::kTxnBegin, txn_counter_, open_.size());
  if (observer_) {
    const auto views = observer_views();
    observer_->on_begin(txn_counter_, views);
  }
  return Transaction{this, txn_counter_};
}

TxnContext* Perseas::find_context(std::uint64_t txn_id) noexcept {
  for (auto& ctx : open_) {
    if (ctx->id() == txn_id) return ctx.get();
  }
  return nullptr;
}

void Perseas::close_context(std::uint64_t txn_id) noexcept {
  cc_->on_release(txn_id);
  for (auto it = open_.begin(); it != open_.end(); ++it) {
    if ((*it)->id() == txn_id) {
      closed_.push_back(std::move(*it));
      open_.erase(it);
      return;
    }
  }
}

// --- transaction backends ---------------------------------------------------

// The anomaly funnel: a PerseasError escaping a transaction backend is a
// contract violation or a protocol defect, so it is noted on the flight
// recorder (triggering a PERSEAS_BLACKBOX dump when configured) on its way
// out.  TxnConflict is rethrown untouched: losing first-writer-wins is
// ordinary protocol behaviour the caller is expected to handle by aborting.
// No lock is held here — the *_impl bodies take mu_ themselves.
void Perseas::txn_set_range(std::uint64_t txn_id, std::uint32_t record, std::uint64_t offset,
                            std::uint64_t size) {
  try {
    txn_set_range_impl(txn_id, record, offset, size);
  } catch (const TxnConflict&) {
    throw;
  } catch (const PerseasError& e) {
    cluster_->flight().note_anomaly(e.what());
    throw;
  }
}

void Perseas::txn_commit(std::uint64_t txn_id) {
  try {
    txn_commit_impl(txn_id);
  } catch (const TxnConflict&) {
    throw;
  } catch (const PerseasError& e) {
    cluster_->flight().note_anomaly(e.what());
    throw;
  }
}

void Perseas::txn_abort(std::uint64_t txn_id) {
  try {
    txn_abort_impl(txn_id);
  } catch (const TxnConflict&) {
    throw;
  } catch (const PerseasError& e) {
    cluster_->flight().note_anomaly(e.what());
    throw;
  }
}

void Perseas::txn_set_range_impl(std::uint64_t txn_id, std::uint32_t record,
                                 std::uint64_t offset, std::uint64_t size) {
  sync::LockGuard lock(mu_);
  const PhaseScope set_range_phase = open_phase(txn_id, TxnPhase::kSetRange);
  cluster_->charge_cpu(local_, cluster_->profile().library.txn_set_range);
  TxnContext* ctx = find_context(txn_id);
  if (ctx == nullptr) throw UsageError("set_range: transaction is not active");
  if (record >= records_.size()) throw UsageError("set_range: record index out of range");
  if (size == 0) throw UsageError("set_range: empty range");
  if (offset + size > records_[record].size || offset + size < offset) {
    throw UsageError("set_range: range exceeds record");
  }
  // Consult the concurrency-control policy before anything else observes
  // the declaration: a rejected set_range leaves the transaction, the stats
  // and the logs exactly as they were, so the caller can abort and retry.
  // The policy only *decides*; every observable consequence (the charged
  // wait, the stats, the flight event, the throw) happens right here so the
  // cost model and the verifier see one declaration path for all policies.
  if (const auto rejection = cc_->on_declare(txn_id, record, offset, size)) {
    if (rejection->wait > 0) {
      // Wait-die's timestamp wait: the older requester spends simulated
      // time parked before retrying.  Charged under its own scope so the
      // ledger attributes the idleness to waiting, not to set_range work.
      PhaseScope cc_wait = open_phase(txn_id, TxnPhase::kCcWait);
      cluster_->clock().wait(rejection->wait);
      ++stats_.cc_waits;
      cc_wait.end();
    }
    ++stats_.txns_conflicted;
    if (rejection->reason == AbortReason::kWounded) ++stats_.txns_wounded;
    cluster_->flight().record(EventKind::kTxnConflict, txn_id, rejection->holder, record,
                              offset);
    throw TxnConflict(txn_id, rejection->holder, record, offset, size, rejection->reason);
  }
  if (observer_) observer_->on_set_range(txn_id, record, offset, size);
  ++stats_.set_ranges;
  cluster_->flight().record(EventKind::kSetRange, txn_id, record, offset, size);

  // Merge the declaration into the per-record union.  Only the sub-ranges
  // not already declared ("fresh") need before-images: the covered bytes
  // were logged by an earlier set_range while still pristine (writes must
  // follow their covering declaration), so a second copy would duplicate
  // the first byte-for-byte.
  const std::vector<ByteRange>& uncovered = ctx->declare(record, offset, size);
  // Historical behaviour without coalescing: one full-width entry per
  // declaration.  The union is still maintained so both modes expose the
  // same write set.
  const ByteRange whole{offset, size};
  std::span<const ByteRange> fresh(&whole, 1);
  if (config_.coalesce_ranges) {
    fresh = uncovered;
    if (fresh.size() != 1 || fresh.front() != whole) ++stats_.ranges_coalesced;
  }

  PhaseScope local_undo = open_phase(txn_id, TxnPhase::kLocalUndo);
  std::vector<UndoImage>& entries = staged_;
  entries.clear();
  std::uint64_t fresh_bytes = 0;
  for (const auto& r : fresh) {  // figure 3, step 1
    UndoImage& u = entries.emplace_back();
    u.record = record;
    u.offset = r.offset;
    u.before = ctx->take_buffer();
    const auto src = record_bytes_locked(record).subspan(r.offset, r.size);
    u.before.assign(src.begin(), src.end());
    fresh_bytes += r.size;
  }
  if (fresh_bytes > 0) cluster_->charge_local_memcpy(local_, fresh_bytes);
  if (config_.coalesce_ranges && fresh_bytes < size) {
    cluster_->flight().record(EventKind::kCoalesce, txn_id, record, size, fresh_bytes);
  }
  stats_.bytes_undo_local += fresh_bytes;
  stats_.bytes_dedup_undo += size - fresh_bytes;
  // Reported only when something was copied: a fully covered declaration
  // is no local-undo work.
  local_undo.end(fresh_bytes, 0, /*report=*/fresh_bytes > 0);
  // Notified even when fully covered (nothing copied): crash tests rely on
  // every set_range reaching the same protocol points.
  cluster_->failures().notify(points::kAfterLocalUndo);

  if (config_.eager_remote_undo && !entries.empty()) {
    PhaseScope remote_undo = open_phase(txn_id, TxnPhase::kRemoteUndo);
    std::uint64_t pushed = 0;
    for (auto& u : entries) {
      const std::uint64_t needed = undo_entry_bytes(u.before.size());
      undo_log_.ensure_capacity(mirror_set_, needed, open_);
      undo_log_.push(mirror_set_, u, txn_id, netram::StreamHint::kNewBurst,
                     observer_.get());  // figure 3, step 2
      pushed += needed;
      cluster_->failures().notify(points::kAfterRemoteUndo);
      ctx->undo().push_back(std::move(u));
      ctx->set_pushed_entries(ctx->undo().size());
    }
    remote_undo.end(pushed * mirror_set_.size());
  } else {
    for (auto& u : entries) ctx->undo().push_back(std::move(u));
  }
}

void Perseas::txn_read_range(std::uint64_t txn_id, std::uint32_t record, std::uint64_t offset,
                             std::uint64_t size) {
  sync::LockGuard lock(mu_);
  TxnContext* ctx = find_context(txn_id);
  if (ctx == nullptr) throw UsageError("read_range: transaction is not active");
  if (record >= records_.size()) throw UsageError("read_range: record index out of range");
  if (size == 0) return;  // an empty read observes nothing
  if (offset + size > records_[record].size || offset + size < offset) {
    throw UsageError("read_range: range exceeds record");
  }
  // Pure bookkeeping: the declared range joins the read set the validate
  // phase checks at commit.  No cost is charged (the application already
  // pays for its own loads), no protocol point fires, and the pessimistic
  // policies ignore the read set entirely — reads never block or wound.
  ctx->declare_read(record, offset, size);
  ++stats_.read_ranges;
}

void Perseas::txn_commit_impl(std::uint64_t txn_id) {
  sync::LockGuard lock(mu_);
  const PhaseScope commit_phase = open_phase(txn_id, TxnPhase::kCommit);
  cluster_->charge_cpu(local_, cluster_->profile().library.txn_commit);
  TxnContext* ctx = find_context(txn_id);
  if (ctx == nullptr) throw UsageError("commit: no active transaction");
  cluster_->flight().record(EventKind::kTxnCommitRequest, txn_id, ctx->undo().size(),
                            ctx->declared_bytes());

  if (observer_) {
    // Nothing has been propagated yet: a CoverageError here leaves the
    // transaction active and both database images untouched, so the caller
    // can still abort locally.
    const auto views = observer_views();
    observer_->on_commit(txn_id, views);
  }

  // Validate phase: the policy's last chance to reject the transaction
  // before any byte reaches a mirror.  For the pessimistic policies this is
  // a constant-time no-op (their decisions already happened at declare
  // time); for ValidateAtCommit it is OCC backward validation of the read
  // set.  A failure here is purely local — nothing has been propagated, so
  // the caller aborts exactly as it would after a declare-time conflict.
  {
    PhaseScope validate = open_phase(txn_id, TxnPhase::kValidate);
    const std::uint64_t writer = cc_->on_validate(*ctx);
    validate.end();
    if (writer != 0) {
      ++stats_.txns_conflicted;
      ++stats_.txns_validation_failed;
      cluster_->flight().record(EventKind::kTxnConflict, txn_id, writer, 0, 0);
      cluster_->failures().notify(points::kValidateFail);
      throw TxnConflict(txn_id, writer, 0, 0, 0, AbortReason::kValidationFailed);
    }
  }
  cluster_->failures().notify(points::kAfterValidate);

  if (!config_.eager_remote_undo) {
    // Lazy mode: make the undo images durable on the mirrors now, before
    // any propagation can touch the remote database.  Rewinding the shared
    // tail is safe here because lazy pushes happen only inside this
    // synchronous commit — no other open transaction has live entries.
    undo_log_.reset_tail();
    PhaseScope remote_undo = open_phase(txn_id, TxnPhase::kRemoteUndo);
    std::uint64_t total = 0;
    for (const auto& u : ctx->undo()) {
      const std::uint64_t needed = undo_entry_bytes(u.before.size());
      if (needed > std::numeric_limits<std::uint64_t>::max() - total) {
        throw OutOfRemoteMemory("commit: transaction's undo images overflow a 64-bit log");
      }
      total += needed;
    }
    // Growth moves to an empty segment first (preserving nothing); every
    // entry then flows through the same per-entry push below, so the
    // protocol points and observer cross-checks are identical whether or
    // not the log had to grow.  The entries continue one SCI stream: only
    // the first pays the burst launch latency.
    undo_log_.ensure_capacity(mirror_set_, total, open_);
    bool first = true;
    for (const auto& u : ctx->undo()) {
      undo_log_.push(mirror_set_, u, txn_id,
                     first ? netram::StreamHint::kNewBurst : netram::StreamHint::kContinuation,
                     observer_.get());
      first = false;
      cluster_->failures().notify(points::kAfterRemoteUndo);
    }
    // Reported even for a read-only transaction's empty push.
    remote_undo.end(total * mirror_set_.size());
  }

  if (ctx->undo().empty()) {  // read-only transaction: nothing to propagate
    cc_->on_commit(*ctx);
    close_context(txn_id);
    ++stats_.txns_committed;
    cluster_->flight().record(EventKind::kTxnCommitted, txn_id, 1);
    if (observer_) observer_->on_commit_complete(txn_id);
    cluster_->failures().notify(points::kCommitDone);
    return;
  }

  for (std::uint32_t mi = 0; mi < mirror_set_.size(); ++mi) {
    MirrorSet::Mirror& m = mirror_set_[mi];
    // Announce the propagation: from here until the clearing store, the
    // mirror's database image may be partially updated and recovery must
    // roll it back with the remote undo log.  The announcement carries the
    // shared log's exact tail, so recovery can prove it parsed every entry
    // — this transaction's and any open neighbour's interleaved with them.
    {
      PhaseScope flag_set = open_phase(txn_id, TxnPhase::kFlagSet);
      mirror_set_.store_flag(m, txn_id, undo_log_.tail(), netram::StreamHint::kNewBurst);
      flag_set.end(kFlagBytes, mi);
    }
    cluster_->failures().notify(points::kAfterFlagSet);

    PhaseScope propagate = open_phase(txn_id, TxnPhase::kPropagate);
    std::uint64_t mirror_bytes = 0;
    const auto after_copy = [this] { cluster_->failures().notify(points::kAfterRangeCopy); };
    if (config_.coalesce_ranges) {
      // figure 3, step 3 — each record's merged dirty union exactly once,
      // gathered into shared SCI bursts (adjacent ranges share packets,
      // later bursts skip the launch latency).
      mirror_bytes = mirror_set_.propagate_ranges(m, ctx->write_set(), records_, after_copy);
      stats_.bytes_dedup_propagated += ctx->declared_bytes() - mirror_bytes;
    } else {
      mirror_bytes = mirror_set_.propagate_entries(m, ctx->undo(), records_, after_copy);
    }
    propagate.end(mirror_bytes, mi);

    cluster_->failures().notify(points::kBeforeFlagClear);
    // THE commit point (for this mirror): the store clearing the flag.  The
    // seeded bug skips the store but still books and reports the phase.
    {
      PhaseScope flag_clear = open_phase(txn_id, TxnPhase::kFlagClear);
      if (!mc_skip_flag_clear_) mirror_set_.store_flag(m, 0, 0, netram::StreamHint::kContinuation);
      flag_clear.end(kFlagBytes, mi);
    }
    cluster_->failures().notify(points::kAfterFlagClear);
  }

  // Record the committed write set with the policy while the context is
  // still alive: ValidateAtCommit's history is built from exactly the
  // coalesced unions the mirrors just received.
  cc_->on_commit(*ctx);
  close_context(txn_id);
  ++stats_.txns_committed;
  cluster_->flight().record(EventKind::kTxnCommitted, txn_id, 0);
  if (observer_) observer_->on_commit_complete(txn_id);
  cluster_->failures().notify(points::kCommitDone);
}

void Perseas::txn_abort_impl(std::uint64_t txn_id) {
  sync::LockGuard lock(mu_);
  const PhaseScope abort_phase = open_phase(txn_id, TxnPhase::kAbort);
  cluster_->charge_cpu(local_, cluster_->profile().library.txn_abort);
  TxnContext* ctx = find_context(txn_id);
  if (ctx == nullptr) throw UsageError("abort: no active transaction");
  // Purely local: the remote database was never touched (propagation only
  // happens inside commit), and stale remote undo entries are harmless
  // because propagating_txn is zero.  Newest-first restores legacy
  // (coalesce_ranges=false) overlapping entries correctly; coalesced
  // entries are disjoint, for which any order works.
  std::uint64_t bytes = 0;
  const auto& undo = ctx->undo();
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    auto dst = record_bytes_locked(it->record).subspan(it->offset, it->before.size());
    std::memcpy(dst.data(), it->before.data(), it->before.size());
    bytes += it->before.size();
  }
  cluster_->charge_local_memcpy(local_, bytes);
  close_context(txn_id);
  ++stats_.txns_aborted;
  cluster_->flight().record(EventKind::kTxnAborted, txn_id, bytes);
  if (observer_) {
    // The declared before-images are restored; every record must now be
    // byte-identical to its begin snapshot or an uncovered write leaked
    // through the rollback.
    const auto views = observer_views();
    observer_->on_abort(txn_id, views);
  }
  cluster_->failures().notify(points::kAbortDone);
}

// The Transaction/RecordHandle forwarders live in transaction.cpp;
// rebuild_mirror, attach_recover and recover in perseas_recover.cpp; the
// observability wiring (maybe_install_observers, export_metrics) in
// perseas_observe.cpp.

}  // namespace perseas::core
