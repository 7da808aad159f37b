// Mirror bookkeeping of one PERSEAS database: the remote segments that
// make it recoverable.
//
// Each mirror is one remote-memory server holding the database's meta
// segment, the live undo-log segment, and one segment per record.  The
// MirrorSet owns segment lifecycle (create, connect-adopt on recovery,
// rebuild after a mirror crash, free on decommission) and the raw data
// pushes (metadata directory, record images, the 16-byte propagation-flag
// stores, and the gathered sci_memcpy_writev range propagation).  Commit
// *orchestration* — the flag/propagate/clear sequence with its failure
// notifies and observer callbacks — stays in core/perseas.cpp; recovery
// and failover share these primitives so a database rebuilt on another
// workstation is byte-identical to one built fresh.
//
// The set keeps no lock of its own: its one owner, Perseas, declares it
// PERSEAS_GUARDED_BY(Perseas::mu_), so membership changes and data pushes
// alike run under the orchestration lock.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/perseas_config.hpp"
#include "core/range_set.hpp"
#include "core/txn_context.hpp"
#include "netram/cluster.hpp"
#include "netram/remote_memory.hpp"

namespace perseas::core {

class MirrorSet {
 public:
  struct Mirror {
    netram::RemoteMemoryServer* server = nullptr;
    netram::RemoteSegment meta;
    netram::RemoteSegment undo;
    std::vector<netram::RemoteSegment> db;
  };

  /// References must outlive the set; `stats` receives mirror_rebuilds.
  MirrorSet(netram::Cluster& cluster, netram::RemoteMemoryClient& client,
            netram::NodeId local, const PerseasConfig& config, PerseasStats& stats);

  MirrorSet(const MirrorSet&) = delete;
  MirrorSet& operator=(const MirrorSet&) = delete;

  /// Creates meta + undo segments on `server` and appends the mirror.
  /// Throws UsageError when the server already hosts this database,
  /// OutOfRemoteMemory when it cannot hold the segments.
  Mirror& add(netram::RemoteMemoryServer* server, std::uint64_t undo_capacity,
              std::uint64_t undo_gen);

  /// Appends a mirror whose segments were already connected (recovery).
  Mirror& adopt(Mirror&& m);

  [[nodiscard]] std::size_t size() const noexcept { return mirrors_.size(); }
  [[nodiscard]] bool empty() const noexcept { return mirrors_.empty(); }
  [[nodiscard]] Mirror& operator[](std::size_t i) noexcept { return mirrors_[i]; }
  [[nodiscard]] const Mirror& operator[](std::size_t i) const noexcept { return mirrors_[i]; }
  /// The mirror list itself (membership only changes in attach, recovery
  /// and decommission, never mid-transaction).
  [[nodiscard]] std::vector<Mirror>& mirrors() noexcept { return mirrors_; }
  void clear() noexcept { mirrors_.clear(); }

  /// Reserves record `index`'s mirror segment (`size` bytes) on mirror `m`.
  /// `who` names the caller in the OutOfRemoteMemory message.
  void reserve_record(Mirror& m, std::uint32_t index, std::uint64_t size, const char* who);

  /// Pushes the metadata directory (header + per-record sizes, clean flag).
  void push_meta(Mirror& m, std::span<const LocalRecord> records, std::uint64_t undo_gen);

  /// Pushes record `index`'s current local bytes to its mirror segment.
  void push_record(Mirror& m, std::uint32_t index, std::span<const LocalRecord> records);

  /// Frees every segment of `m` (decommission path).
  void free_segments(Mirror& m);

  /// Stores the 16-byte propagation flag {txn_id, undo_bytes} — the
  /// announcement when txn_id != 0, THE commit point when clearing to zero.
  void store_flag(Mirror& m, std::uint64_t txn_id, std::uint64_t undo_bytes,
                  netram::StreamHint hint);

  /// figure 3, step 3 (coalesced): propagates each record's merged dirty
  /// union to `m`'s database image, gathered per record into shared SCI
  /// bursts; `after_slice` runs after every slice lands (crash points).
  /// Returns the bytes moved; increments stats' propagate_writes.
  std::uint64_t propagate_ranges(
      Mirror& m, const std::vector<std::pair<std::uint32_t, std::vector<ByteRange>>>& write_set,
      std::span<const LocalRecord> records, const std::function<void()>& after_slice);

  /// figure 3, step 3 (legacy, coalesce_ranges=false): one store per undo
  /// entry, in declaration order.  Returns the bytes moved.
  std::uint64_t propagate_entries(Mirror& m, const std::vector<UndoImage>& undo,
                                  std::span<const LocalRecord> records,
                                  const std::function<void()>& after_copy);

  /// Rebuilds mirror `index` (whose server lost its exports in a crash and
  /// has been restarted) from the local records: drops any stale exports,
  /// re-creates all segments, pushes record contents and clean metadata.
  void rebuild(std::uint32_t index, std::span<const LocalRecord> records,
               std::uint64_t undo_capacity, std::uint64_t undo_gen);

 private:
  void create_segments(Mirror& m, std::uint64_t undo_capacity, std::uint64_t undo_gen);
  [[nodiscard]] std::span<std::byte> record_bytes(std::span<const LocalRecord> records,
                                                  std::uint32_t index) const;

  netram::Cluster* cluster_;
  netram::RemoteMemoryClient* client_;
  netram::NodeId local_;
  const PerseasConfig* config_;
  PerseasStats* stats_;
  std::vector<Mirror> mirrors_;
  /// propagate_ranges()'s gather list, reused from record to record.
  std::vector<netram::RemoteMemoryClient::GatherSlice> slices_;
};

}  // namespace perseas::core
