#include "core/undo_log.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <tuple>

#include "core/errors.hpp"
#include "core/layout.hpp"
#include "core/protocol_points.hpp"
#include "core/txn_hooks.hpp"
#include "sim/crc32.hpp"

namespace perseas::core {

namespace {

std::span<const std::byte> as_bytes_of(const std::uint64_t& v) {
  return {reinterpret_cast<const std::byte*>(&v), sizeof v};
}

}  // namespace

std::uint32_t undo_entry_checksum(const UndoEntryHeader& hdr, std::span<const std::byte> image) {
  // The fields are memcpy'd into a packed buffer so the computation never
  // forms references into a header that may live at an arbitrary log
  // offset; chaining over the packed bytes produces the identical CRC as
  // the per-field version.
  std::array<std::byte, sizeof hdr.record + sizeof hdr.txn_id + sizeof hdr.offset +
                            sizeof hdr.size>
      fields;
  std::byte* p = fields.data();
  std::memcpy(p, &hdr.record, sizeof hdr.record);
  p += sizeof hdr.record;
  std::memcpy(p, &hdr.txn_id, sizeof hdr.txn_id);
  p += sizeof hdr.txn_id;
  std::memcpy(p, &hdr.offset, sizeof hdr.offset);
  p += sizeof hdr.offset;
  std::memcpy(p, &hdr.size, sizeof hdr.size);
  const std::uint32_t crc = sim::crc32c(fields);
  return sim::crc32c(image, crc) ^ 0xffffffffu;
}

std::uint64_t next_undo_capacity(std::uint64_t current, std::uint64_t required) {
  std::uint64_t capacity = std::max<std::uint64_t>(current, 64);
  while (capacity < required) {
    if (capacity > std::numeric_limits<std::uint64_t>::max() / 2) {
      // One more doubling would wrap to zero and the loop would spin
      // forever; no mirror can hold this transaction's undo images.
      throw OutOfRemoteMemory("grow_undo: undo-log capacity overflow (transaction needs " +
                              std::to_string(required) + " bytes)");
    }
    capacity *= 2;
  }
  return capacity;
}

UndoLog::UndoLog(netram::Cluster& cluster, netram::RemoteMemoryClient& client,
                 const PerseasConfig& config, PerseasStats& stats)
    : cluster_(&cluster),
      client_(&client),
      config_(&config),
      stats_(&stats),
      capacity_(config.undo_capacity) {}

void UndoLog::serialize(const UndoImage& u, std::uint64_t txn_id,
                        std::vector<std::byte>& out) const {
  UndoEntryHeader hdr;
  hdr.record = u.record;
  hdr.txn_id = txn_id;
  hdr.offset = u.offset;
  hdr.size = u.before.size();
  hdr.checksum = undo_entry_checksum(hdr, u.before);
  const std::size_t at = out.size();
  out.resize(at + undo_entry_bytes(u.before.size()));
  std::memcpy(out.data() + at, &hdr, sizeof hdr);
  std::memcpy(out.data() + at + sizeof hdr, u.before.data(), u.before.size());
}

void UndoLog::ensure_capacity(MirrorSet& mirrors, std::uint64_t needed,
                              std::span<const std::unique_ptr<TxnContext>> open) {
  sync::LockGuard lock(mu_);
  if (tail_ + needed > capacity_) grow(mirrors, needed, open);
}

void UndoLog::push(MirrorSet& mirrors, const UndoImage& u, std::uint64_t txn_id,
                   netram::StreamHint hint, TxnObserver* observer) {
  sync::LockGuard lock(mu_);
  entry_.clear();
  serialize(u, txn_id, entry_);
  const std::span<const std::byte> buf = entry_;
  for (auto& m : mirrors.mirrors()) {
    client_->sci_memcpy_write(m.undo, tail_, buf, hint, config_->optimized_sci_memcpy);
    stats_->bytes_undo_remote += buf.size();
    ++stats_->undo_writes;
    if (observer != nullptr) {
      // Peek at the mirror's memory directly (no simulated traffic): the
      // serialized entry just written must byte-match the local log.
      const auto remote =
          cluster_->node(m.server->host()).mem(m.undo.offset + tail_, buf.size());
      observer->on_undo_push(txn_id, buf, remote);
    }
  }
  tail_ += undo_entry_bytes(u.before.size());
  cluster_->flight().record(EventKind::kUndoPush, txn_id, tail_, buf.size());
}

void UndoLog::grow(MirrorSet& mirrors, std::uint64_t needed_bytes,
                   std::span<const std::unique_ptr<TxnContext>> open) {
  // Re-log the already-pushed entries of every open transaction into a
  // larger segment (per-transaction entry order preserved); entries not
  // yet pushed follow through push().
  std::vector<std::byte> all;
  for (const auto& ctx : open) {
    for (std::size_t i = 0; i < ctx->pushed_entries(); ++i) {
      serialize(ctx->undo()[i], ctx->id(), all);
    }
  }
  if (needed_bytes > std::numeric_limits<std::uint64_t>::max() - all.size()) {
    throw OutOfRemoteMemory("grow_undo: undo-log capacity overflow (transaction needs more "
                            "bytes than a 64-bit log can address)");
  }
  const std::uint64_t new_capacity = next_undo_capacity(capacity_, all.size() + needed_bytes);

  const std::uint64_t new_gen = gen_ + 1;
  for (auto& m : mirrors.mirrors()) {
    netram::RemoteSegment fresh;
    try {
      fresh = client_->sci_get_new_segment(*m.server, new_capacity,
                                           undo_key(new_gen, config_->name));
    } catch (const std::bad_alloc&) {
      throw OutOfRemoteMemory("grow_undo: mirror node " + std::to_string(m.server->host()) +
                              " cannot hold a " + std::to_string(new_capacity) +
                              "-byte undo log");
    }
    if (!all.empty()) {
      client_->sci_memcpy_write(fresh, 0, all, netram::StreamHint::kNewBurst,
                                config_->optimized_sci_memcpy);
    }
    // Publish the new generation, then drop the old segment.  A crash
    // between these steps is safe: growth runs with propagating_txn == 0,
    // so recovery never consults the undo log in this window.
    const std::uint64_t gen_value = new_gen;
    client_->sci_memcpy_write(m.meta, kUndoGenOffset, as_bytes_of(gen_value),
                              netram::StreamHint::kNewBurst, false);
    client_->sci_free_segment(*m.server, m.undo);
    m.undo = fresh;
  }
  cluster_->flight().record(EventKind::kUndoGrow, 0, capacity_, new_capacity);
  gen_ = new_gen;
  capacity_ = new_capacity;
  tail_ = all.size();
  ++stats_->undo_growths;
  cluster_->failures().notify(points::kUndoAfterGrowth);
}

// --- recovery ---------------------------------------------------------------

UndoLog::ScanResult UndoLog::scan(std::span<const std::byte> log, const MetaHeader& hdr,
                                  std::span<const std::uint64_t> sizes) {
  // When a commit was in flight, the metadata names the exact tail of the
  // log at announcement time: every byte of that prefix must parse and
  // checksum cleanly — the doomed transaction's entries *and* any entries
  // of in-flight neighbours interleaved at the shared tail — or the mirror
  // cannot be rolled back and recovery refuses rather than return a
  // partially updated database.
  const std::uint64_t must_parse = hdr.propagating_txn != 0 ? hdr.propagating_undo_bytes : 0;
  if (must_parse > log.size()) {
    throw RecoveryError("recover: metadata claims more undo bytes than the segment holds");
  }
  ScanResult result;
  result.max_txn = hdr.propagating_txn;
  const auto tally = [&result](std::uint64_t txn_id) -> TxnScanTally& {
    for (auto& t : result.per_txn) {
      if (t.txn_id == txn_id) return t;
    }
    result.per_txn.push_back(TxnScanTally{txn_id, 0, 0, 0});
    return result.per_txn.back();
  };
  std::uint64_t pos = 0;
  while (pos + sizeof(UndoEntryHeader) <= log.size()) {
    const bool required = pos < must_parse;
    UndoEntryHeader e;
    std::memcpy(&e, log.data() + pos, sizeof e);
    const bool shape_ok = e.magic == UndoEntryHeader::kMagic && e.record < hdr.record_count &&
                          e.size <= sizes[e.record] && e.offset + e.size <= sizes[e.record] &&
                          pos + undo_entry_bytes(e.size) <= log.size();
    if (!shape_ok) {
      if (required) {
        throw RecoveryError(
            "recover: remote undo log is corrupt inside the in-flight "
            "transaction's entries; the mirror cannot be rolled back safely");
      }
      break;  // clean end of the log (stale bytes / zeroes)
    }
    const std::span<const std::byte> body{log.data() + pos + sizeof e, e.size};
    if (e.checksum != undo_entry_checksum(e, body)) {
      if (required) {
        throw RecoveryError(
            "recover: remote undo entry failed validation while a commit "
            "was in flight; the mirror cannot be rolled back safely");
      }
      break;
    }
    result.max_txn = std::max(result.max_txn, e.txn_id);
    ++result.entries_scanned;
    result.bytes_scanned += undo_entry_bytes(e.size);
    TxnScanTally& t = tally(e.txn_id);
    ++t.scanned;
    if (required && e.txn_id == hdr.propagating_txn) {
      result.rollbacks.push_back(
          RollbackEntry{e.record, e.offset, pos + sizeof e, e.size, e.txn_id});
      ++t.applied;
    } else {
      ++t.discarded;
    }
    pos += undo_entry_bytes(e.size);
  }
  if (pos < must_parse) {
    throw RecoveryError("recover: undo log ends before the announced length");
  }
  return result;
}

void UndoLog::apply_rollbacks(MirrorSet::Mirror& m, std::span<const RollbackEntry> rollbacks,
                              std::span<const std::byte> log) const {
  // Roll doomed transactions back newest-first by txn id (only one can be
  // announced at a time, but the id grouping keeps the invariant explicit
  // and future-proof for multi-flag layouts).
  std::vector<std::uint64_t> ids;
  for (const RollbackEntry& e : rollbacks) {
    if (std::find(ids.begin(), ids.end(), e.txn_id) == ids.end()) ids.push_back(e.txn_id);
  }
  std::sort(ids.begin(), ids.end(), std::greater<>());

  for (const std::uint64_t id : ids) {
    std::vector<std::size_t> entries;
    for (std::size_t i = 0; i < rollbacks.size(); ++i) {
      if (rollbacks[i].txn_id == id) entries.push_back(i);
    }
    // Coalesced logs (the default format) hold disjoint before-images per
    // transaction, so rollback is order-independent: apply them forward,
    // gathered per record into shared SCI bursts.  Legacy-format logs
    // (coalesce_ranges=false) may hold overlapping entries — a later
    // range's before-image contains the earlier range's writes, so forward
    // application would resurrect them — and must be applied newest-first,
    // one store each.
    std::vector<std::size_t> order = entries;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return std::tie(rollbacks[a].record, rollbacks[a].offset) <
             std::tie(rollbacks[b].record, rollbacks[b].offset);
    });
    bool overlapping = false;
    for (std::size_t i = 1; i < order.size() && !overlapping; ++i) {
      const RollbackEntry& prev = rollbacks[order[i - 1]];
      const RollbackEntry& next = rollbacks[order[i]];
      overlapping = prev.record == next.record && prev.offset + prev.size > next.offset;
    }
    if (overlapping) {
      for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
        const RollbackEntry& rb = rollbacks[*it];
        const std::span<const std::byte> image{log.data() + rb.body_pos, rb.size};
        client_->sci_memcpy_write(m.db[rb.record], rb.offset, image,
                                  netram::StreamHint::kNewBurst, config_->optimized_sci_memcpy);
      }
    } else {
      std::size_t i = 0;
      while (i < order.size()) {
        const std::uint32_t rec = rollbacks[order[i]].record;
        std::vector<netram::RemoteMemoryClient::GatherSlice> slices;
        for (; i < order.size() && rollbacks[order[i]].record == rec; ++i) {
          const RollbackEntry& rb = rollbacks[order[i]];
          slices.push_back({rb.offset, {log.data() + rb.body_pos, rb.size}});
        }
        client_->sci_memcpy_writev(m.db[rec], slices, netram::StreamHint::kNewBurst,
                                   config_->optimized_sci_memcpy);
      }
    }
  }
}

}  // namespace perseas::core
