#include "core/mirror_set.hpp"

#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

#include "core/errors.hpp"
#include "core/event_registry.hpp"
#include "core/layout.hpp"
#include "core/protocol_points.hpp"
#include "obs/flight_recorder.hpp"

namespace perseas::core {

namespace {

std::span<const std::byte> as_flag_bytes(const std::uint64_t (&v)[2]) {
  return {reinterpret_cast<const std::byte*>(v), sizeof v};
}

}  // namespace

MirrorSet::MirrorSet(netram::Cluster& cluster, netram::RemoteMemoryClient& client,
                     netram::NodeId local, const PerseasConfig& config, PerseasStats& stats)
    : cluster_(&cluster), client_(&client), local_(local), config_(&config), stats_(&stats) {}

std::span<std::byte> MirrorSet::record_bytes(std::span<const LocalRecord> records,
                                             std::uint32_t index) const {
  const LocalRecord& r = records[index];
  return cluster_->node(local_).mem(r.local_offset, r.size);
}

void MirrorSet::create_segments(Mirror& m, std::uint64_t undo_capacity,
                                std::uint64_t undo_gen) {
  try {
    m.meta = client_->sci_get_new_segment(*m.server, meta_segment_size(config_->max_records),
                                          meta_key(config_->name));
    m.undo = client_->sci_get_new_segment(*m.server, undo_capacity,
                                          undo_key(undo_gen, config_->name));
  } catch (const std::invalid_argument&) {
    throw UsageError(
        "Perseas: server on node " + std::to_string(m.server->host()) +
        " already hosts a PERSEAS database; use Perseas::recover() to attach to it");
  } catch (const std::bad_alloc&) {
    throw OutOfRemoteMemory("Perseas: mirror node " + std::to_string(m.server->host()) +
                            " cannot hold the metadata segments");
  }
}

MirrorSet::Mirror& MirrorSet::add(netram::RemoteMemoryServer* server,
                                  std::uint64_t undo_capacity, std::uint64_t undo_gen) {
  Mirror m;
  m.server = server;
  create_segments(m, undo_capacity, undo_gen);
  sync::LockGuard lock(mu_);
  mirrors_.push_back(std::move(m));
  return mirrors_.back();
}

MirrorSet::Mirror& MirrorSet::adopt(Mirror&& m) {
  sync::LockGuard lock(mu_);
  mirrors_.push_back(std::move(m));
  return mirrors_.back();
}

void MirrorSet::reserve_record(Mirror& m, std::uint32_t index, std::uint64_t size,
                               const char* who) {
  try {
    m.db.push_back(
        client_->sci_get_new_segment(*m.server, size, db_key(index, config_->name)));
  } catch (const std::bad_alloc&) {
    throw OutOfRemoteMemory(std::string(who) + ": mirror node " +
                            std::to_string(m.server->host()) + " is out of memory");
  }
}

void MirrorSet::push_meta(Mirror& m, std::span<const LocalRecord> records,
                          std::uint64_t undo_gen) {
  std::vector<std::byte> buf(meta_segment_size(config_->max_records));
  MetaHeader hdr;
  hdr.record_count = static_cast<std::uint32_t>(records.size());
  hdr.propagating_txn = 0;
  hdr.undo_gen = undo_gen;
  std::memcpy(buf.data(), &hdr, sizeof hdr);
  for (std::uint32_t i = 0; i < records.size(); ++i) {
    const std::uint64_t size = records[i].size;
    std::memcpy(buf.data() + record_size_slot(i), &size, sizeof size);
  }
  client_->sci_memcpy_write(m.meta, 0, buf, netram::StreamHint::kNewBurst,
                            config_->optimized_sci_memcpy);
}

void MirrorSet::push_record(Mirror& m, std::uint32_t index,
                            std::span<const LocalRecord> records) {
  auto span = record_bytes(records, index);
  client_->sci_memcpy_write(m.db[index], 0, span, netram::StreamHint::kNewBurst,
                            config_->optimized_sci_memcpy);
}

void MirrorSet::free_segments(Mirror& m) {
  for (const auto& seg : m.db) client_->sci_free_segment(*m.server, seg);
  client_->sci_free_segment(*m.server, m.undo);
  client_->sci_free_segment(*m.server, m.meta);
}

void MirrorSet::store_flag(Mirror& m, std::uint64_t txn_id, std::uint64_t undo_bytes,
                           netram::StreamHint hint) {
  const std::uint64_t flag[2] = {txn_id, undo_bytes};
  client_->sci_memcpy_write(m.meta, kPropagatingOffset, as_flag_bytes(flag), hint, false);
  if (txn_id != 0) {
    cluster_->flight().record(EventKind::kFlagSet, txn_id, m.meta.server_node, undo_bytes);
  } else {
    cluster_->flight().record(EventKind::kFlagClear, 0, m.meta.server_node);
  }
}

std::uint64_t MirrorSet::propagate_ranges(
    Mirror& m, const std::vector<std::pair<std::uint32_t, std::vector<ByteRange>>>& write_set,
    std::span<const LocalRecord> records, const std::function<void()>& after_slice) {
  std::uint64_t mirror_bytes = 0;
  for (const auto& [rec, ranges] : write_set) {
    const auto bytes = record_bytes(records, rec);
    std::vector<netram::RemoteMemoryClient::GatherSlice>& slices = slices_;
    slices.clear();
    for (const auto& r : ranges) {
      slices.push_back({r.offset, bytes.subspan(r.offset, r.size)});
      mirror_bytes += r.size;
    }
    client_->sci_memcpy_writev(m.db[rec], slices, netram::StreamHint::kContinuation,
                               config_->optimized_sci_memcpy,
                               [&after_slice](std::size_t) { after_slice(); });
    ++stats_->propagate_writes;
  }
  stats_->bytes_propagated += mirror_bytes;
  return mirror_bytes;
}

std::uint64_t MirrorSet::propagate_entries(Mirror& m, const std::vector<UndoImage>& undo,
                                           std::span<const LocalRecord> records,
                                           const std::function<void()>& after_copy) {
  std::uint64_t mirror_bytes = 0;
  for (const auto& u : undo) {
    const auto data = record_bytes(records, u.record).subspan(u.offset, u.before.size());
    client_->sci_memcpy_write(m.db[u.record], u.offset, data,
                              netram::StreamHint::kContinuation, config_->optimized_sci_memcpy);
    stats_->bytes_propagated += data.size();
    ++stats_->propagate_writes;
    mirror_bytes += data.size();
    after_copy();
  }
  return mirror_bytes;
}

void MirrorSet::rebuild(std::uint32_t index, std::span<const LocalRecord> records,
                        std::uint64_t undo_capacity, std::uint64_t undo_gen) {
  sync::LockGuard lock(mu_);
  if (index >= mirrors_.size()) throw UsageError("rebuild_mirror: index out of range");
  Mirror& m = mirrors_[index];

  // If the server still exports an older incarnation of the database (it
  // stayed up while we recovered elsewhere, or kept segments from before
  // its own crash), drop those exports first.
  if (auto meta = client_->sci_connect_segment(*m.server, meta_key(config_->name))) {
    MetaHeader hdr;
    std::vector<std::byte> buf(sizeof hdr);
    client_->sci_memcpy_read(*meta, 0, buf);
    std::memcpy(&hdr, buf.data(), sizeof hdr);
    if (hdr.valid()) {
      if (auto undo =
              client_->sci_connect_segment(*m.server, undo_key(hdr.undo_gen, config_->name))) {
        client_->sci_free_segment(*m.server, *undo);
      }
      for (std::uint32_t i = 0; i < hdr.record_count; ++i) {
        if (auto db = client_->sci_connect_segment(*m.server, db_key(i, config_->name))) {
          client_->sci_free_segment(*m.server, *db);
        }
      }
    }
    client_->sci_free_segment(*m.server, *meta);
  }

  m.db.clear();
  create_segments(m, undo_capacity, undo_gen);
  cluster_->failures().notify(points::kRebuildSegments);
  for (std::uint32_t i = 0; i < records.size(); ++i) {
    reserve_record(m, i, records[i].size, "rebuild_mirror");
    push_record(m, i, records);
  }
  push_meta(m, records, undo_gen);
  ++stats_->mirror_rebuilds;
  cluster_->failures().notify(points::kRebuildDone);
}

}  // namespace perseas::core
