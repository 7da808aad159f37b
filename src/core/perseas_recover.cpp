// Recovery and mirror-rebuild paths of the Perseas orchestration layer
// (paper section 3): attach to a surviving mirror, roll back any in-flight
// commit with the tagged undo log, pull the records, re-sync extra
// mirrors.  Split from perseas.cpp so the transaction hot path stays
// readable on its own.
#include <cstring>
#include <string>
#include <string_view>

#include "core/event_registry.hpp"
#include "core/perseas.hpp"
#include "core/protocol_points.hpp"
#include "obs/flight_recorder.hpp"

namespace perseas::core {

void Perseas::rebuild_mirror(std::uint32_t index) {
  sync::LockGuard lock(mu_);
  rebuild_mirror_locked(index);
}

void Perseas::rebuild_mirror_locked(std::uint32_t index) {
  if (shut_down_) throw UsageError("rebuild_mirror: instance was shut down");
  mirror_set_.rebuild(index, records_, undo_log_.capacity(), undo_log_.gen());
}

void Perseas::attach_recover(const std::vector<netram::RemoteMemoryServer*>& servers) {
  sync::LockGuard lock(mu_);
  // Every recovery charge is one ledger bucket: recovery is not part of any
  // transaction's phase breakdown, but its cost must still balance the clock.
  const PhaseScope recover_phase = open_phase(0, TxnPhase::kRecover);
  obs::FlightRecorder& flight = cluster_->flight();
  // Narrated milestones (recover.step events) at each protocol checkpoint;
  // together with the recover.scan/rollback/discard events below they form
  // the structured self-report the blackbox renders after a crash.
  const auto step = [&flight](std::string_view what, std::uint64_t announced_txn = 0,
                              std::uint64_t undo_bytes = 0) {
    flight.record_named(EventKind::kRecoverStep, 0, what, announced_txn, undo_bytes);
  };
  // Find any reachable mirror that holds the database (paper section 3:
  // "the database may be reconstructed quickly in any workstation").
  netram::RemoteMemoryServer* primary = nullptr;
  netram::RemoteSegment meta_seg;
  for (auto* srv : servers) {
    if (srv == nullptr || srv->host() == local_) continue;
    if (cluster_->node(srv->host()).crashed()) continue;
    if (auto seg = client_.sci_connect_segment(*srv, meta_key(config_.name))) {
      primary = srv;
      meta_seg = *seg;
      break;
    }
  }
  if (primary == nullptr) {
    flight.note_anomaly("recover: no reachable mirror exports a PERSEAS database");
    throw RecoveryError("recover: no reachable mirror exports a PERSEAS database");
  }

  MetaHeader hdr;
  {
    std::vector<std::byte> buf(sizeof hdr);
    client_.sci_memcpy_read(meta_seg, 0, buf);
    std::memcpy(&hdr, buf.data(), sizeof hdr);
  }
  if (!hdr.valid()) throw RecoveryError("recover: metadata header is corrupt");
  // The directory capacity is a property of the stored database, not of the
  // recovery invocation: adopt it so later pushes fit the existing segment.
  config_.max_records =
      static_cast<std::uint32_t>((meta_seg.size - sizeof(MetaHeader)) / sizeof(std::uint64_t));
  if (hdr.record_count > config_.max_records) {
    throw RecoveryError("recover: metadata record count exceeds directory capacity");
  }

  std::vector<std::uint64_t> sizes(hdr.record_count);
  if (hdr.record_count > 0) {
    std::vector<std::byte> buf(hdr.record_count * sizeof(std::uint64_t));
    client_.sci_memcpy_read(meta_seg, sizeof(MetaHeader), buf);
    std::memcpy(sizes.data(), buf.data(), buf.size());
  }
  step("meta", hdr.propagating_txn, hdr.propagating_undo_bytes);
  cluster_->failures().notify(points::kRecoverAfterMeta);

  MirrorSet::Mirror m;
  m.server = primary;
  m.meta = meta_seg;
  if (auto undo = client_.sci_connect_segment(*primary, undo_key(hdr.undo_gen, config_.name))) {
    m.undo = *undo;
  } else {
    throw RecoveryError("recover: undo segment generation " + std::to_string(hdr.undo_gen) +
                        " is missing");
  }
  for (std::uint32_t i = 0; i < hdr.record_count; ++i) {
    auto db = client_.sci_connect_segment(*primary, db_key(i, config_.name));
    if (!db) throw RecoveryError("recover: database record " + std::to_string(i) + " is missing");
    if (db->size < sizes[i]) throw RecoveryError("recover: record segment smaller than metadata");
    m.db.push_back(*db);
  }
  step("connected", hdr.propagating_txn);
  cluster_->failures().notify(points::kRecoverConnected);

  // Scan the remote undo log: find the highest transaction id ever logged
  // (to keep ids monotonic across incarnations) and, if a commit was in
  // flight, collect the doomed transaction's before-images to roll the
  // mirror's database back.  In-flight *neighbour* transactions (open but
  // never announced when the primary died) need no rollback: they never
  // touched the mirror's database image, so discarding their entries makes
  // them vanish atomically.
  std::vector<std::byte> undo_bytes(m.undo.size);
  client_.sci_memcpy_read(m.undo, 0, undo_bytes);
  recovery_ = RecoveryReport{};
  recovery_.ran = true;
  recovery_.announced_txn = hdr.propagating_txn;
  UndoLog::ScanResult scan;
  try {
    scan = UndoLog::scan(undo_bytes, hdr, sizes);
  } catch (const RecoveryError& e) {
    // A corrupt announced prefix is exactly the forensic case the blackbox
    // exists for: put the verdict on record (and auto-dump) before failing.
    flight.record(EventKind::kRecoverScan, hdr.propagating_txn, 0, 0, 0);
    flight.note_anomaly(e.what());
    throw;
  }
  recovery_.checksum_ok = true;
  recovery_.entries_scanned = scan.entries_scanned;
  recovery_.bytes_scanned = scan.bytes_scanned;
  recovery_.per_txn = scan.per_txn;
  for (const auto& t : scan.per_txn) {
    recovery_.entries_applied += t.applied;
    recovery_.entries_discarded += t.discarded;
  }
  flight.record(EventKind::kRecoverScan, hdr.propagating_txn, scan.entries_scanned,
                scan.bytes_scanned, 1);
  step("undo_scan", hdr.propagating_txn, scan.bytes_scanned);
  cluster_->failures().notify(points::kRecoverAfterUndoScan);

  // Discard the illegal (partially propagated) update on the mirror,
  // newest transaction first.
  for (const auto& rb : scan.rollbacks) {
    flight.record(EventKind::kRecoverRollback, rb.txn_id, rb.record, rb.offset, rb.size);
  }
  if (recovery_.entries_discarded != 0) {
    flight.record(EventKind::kRecoverDiscard, 0, recovery_.entries_discarded);
  }
  undo_log_.apply_rollbacks(m, scan.rollbacks, undo_bytes);
  step("rollback", hdr.propagating_txn, scan.rollbacks.size());
  cluster_->failures().notify(points::kRecoverAfterRollback);
  if (hdr.propagating_txn != 0) {
    mirror_set_.store_flag(m, 0, 0, netram::StreamHint::kNewBurst);
  }
  step("flag_clear", hdr.propagating_txn);
  cluster_->failures().notify(points::kRecoverAfterFlagClear);

  undo_log_.attach(hdr.undo_gen, m.undo.size);
  txn_counter_ = scan.max_txn;
  mirror_set_.adopt(std::move(m));

  // Pull every record into local memory (one remote-to-local copy each).
  for (std::uint32_t i = 0; i < hdr.record_count; ++i) {
    const auto local_offset = cluster_->node(local_).allocator().allocate(sizes[i]);
    if (!local_offset) throw RecoveryError("recover: local arena exhausted");
    records_.push_back(LocalRecord{*local_offset, sizes[i], true});
    auto span = cluster_->node(local_).mem(*local_offset, sizes[i]);
    client_.sci_memcpy_read(mirror_set_[0].db[i], 0, span);
  }
  step("pull", 0, hdr.record_count);
  cluster_->failures().notify(points::kRecoverAfterPull);

  // Re-synchronize every other reachable mirror from the recovered image so
  // the configured replication degree is restored.
  for (auto* srv : servers) {
    if (srv == nullptr || srv == primary || srv->host() == local_) continue;
    if (cluster_->node(srv->host()).crashed()) continue;
    MirrorSet::Mirror extra;
    extra.server = srv;
    mirror_set_.adopt(std::move(extra));
    rebuild_mirror_locked(static_cast<std::uint32_t>(mirror_set_.size() - 1));
  }
  step("done");
  cluster_->failures().notify(points::kRecoverDone);
}

Perseas Perseas::recover(netram::Cluster& cluster, netram::NodeId new_local,
                         const std::vector<netram::RemoteMemoryServer*>& servers,
                         PerseasConfig config) {
  return Perseas{RecoverTag{}, cluster, new_local, servers, std::move(config)};
}

}  // namespace perseas::core
