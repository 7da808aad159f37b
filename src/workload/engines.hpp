// Concrete TxnEngine adapters for PERSEAS and every comparator, plus
// EngineLab, a self-contained test/bench fixture that owns the whole
// simulated substrate an engine needs.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/perseas.hpp"
#include "disk/disk_model.hpp"
#include "disk/disk_store.hpp"
#include "disk/nvram_store.hpp"
#include "netram/cluster.hpp"
#include "netram/remote_memory.hpp"
#include "rio/rio_cache.hpp"
#include "wal/fs_mirror.hpp"
#include "wal/remote_wal.hpp"
#include "wal/rvm.hpp"
#include "wal/vista.hpp"
#include "workload/engine.hpp"

namespace perseas::workload {

/// PERSEAS with the whole flat database in one persistent record.
class PerseasEngine final : public TxnEngine {
 public:
  PerseasEngine(netram::Cluster& cluster, netram::NodeId local,
                std::vector<netram::RemoteMemoryServer*> mirrors, std::uint64_t db_size,
                core::PerseasConfig config = {});

  [[nodiscard]] std::string_view name() const noexcept override { return "perseas"; }
  [[nodiscard]] netram::Cluster& cluster() noexcept override { return *cluster_; }
  [[nodiscard]] netram::NodeId app_node() const noexcept override { return db_.local_node(); }
  [[nodiscard]] std::span<std::byte> db() override { return record_.bytes(); }
  [[nodiscard]] std::uint64_t db_size() const noexcept override { return record_.size(); }

  void begin() override { begin_slot(0); }
  void set_range(std::uint64_t offset, std::uint64_t size) override {
    set_range_slot(0, offset, size);
  }
  void commit() override { commit_slot(0); }
  void abort() override { abort_slot(0); }

  /// PERSEAS transactions run concurrently (disjoint write sets); the
  /// engine exposes a fixed number of slots, each holding one open
  /// core::Transaction.  An overlapping set_range_slot raises
  /// core::TxnConflict with the slot's transaction still open — the
  /// workload aborts the slot and retries.  Slots follow the TxnEngine
  /// ownership contract (engine.hpp): the engine takes no lock of its
  /// own, so each slot operation costs the one Perseas lock at most.
  static constexpr std::uint32_t kTxnSlots = 8;
  [[nodiscard]] std::uint32_t max_open_txns() const noexcept override { return kTxnSlots; }
  void begin_slot(std::uint32_t slot) override;
  void set_range_slot(std::uint32_t slot, std::uint64_t offset, std::uint64_t size) override;
  void read_range_slot(std::uint32_t slot, std::uint64_t offset, std::uint64_t size) override;
  void commit_slot(std::uint32_t slot) override;
  void abort_slot(std::uint32_t slot) override;

  // PERSEAS is traced via PerseasConfig::trace (observer installed at
  // construction), so set_trace stays the no-op default here.
  void export_metrics(obs::MetricsRegistry& reg) const override { db_.export_metrics(reg); }

  [[nodiscard]] core::Perseas& perseas() noexcept { return db_; }

 private:
  netram::Cluster* cluster_;
  core::Perseas db_;
  core::RecordHandle record_;
  /// Slot w's open Transaction.  Element w is only ever touched by the
  /// thread that owns slot w, so the array needs no lock.
  std::array<std::optional<core::Transaction>, kTxnSlots> slots_;
};

/// RVM over any stable store (disk -> "rvm-disk", Rio -> "rvm-rio").
class RvmEngine final : public TxnEngine {
 public:
  RvmEngine(std::string name, netram::Cluster& cluster, netram::NodeId node,
            disk::StableStore& store, const wal::RvmOptions& options);

  [[nodiscard]] std::string_view name() const noexcept override { return name_; }
  [[nodiscard]] netram::Cluster& cluster() noexcept override { return *cluster_; }
  [[nodiscard]] netram::NodeId app_node() const noexcept override { return node_; }
  [[nodiscard]] std::span<std::byte> db() override { return rvm_.db(); }
  [[nodiscard]] std::uint64_t db_size() const noexcept override { return rvm_.db_size(); }

  void begin() override { rvm_.begin_transaction(); }
  void set_range(std::uint64_t offset, std::uint64_t size) override {
    rvm_.set_range(offset, size);
  }
  void commit() override { rvm_.commit_transaction(); }
  void abort() override { rvm_.abort_transaction(); }

  void set_trace(obs::TraceRecorder* trace, std::uint32_t track) override {
    rvm_.set_trace(trace, track);
  }
  void export_metrics(obs::MetricsRegistry& reg) const override {
    rvm_.export_metrics(reg, name_);
  }

  [[nodiscard]] wal::Rvm& rvm() noexcept { return rvm_; }

 private:
  std::string name_;
  netram::Cluster* cluster_;
  netram::NodeId node_;
  wal::Rvm rvm_;
};

class VistaEngine final : public TxnEngine {
 public:
  VistaEngine(netram::Cluster& cluster, netram::NodeId node, rio::RioCache& rio,
              const wal::VistaOptions& options);

  [[nodiscard]] std::string_view name() const noexcept override { return "vista"; }
  [[nodiscard]] netram::Cluster& cluster() noexcept override { return *cluster_; }
  [[nodiscard]] netram::NodeId app_node() const noexcept override { return node_; }
  [[nodiscard]] std::span<std::byte> db() override { return vista_.db(); }
  [[nodiscard]] std::uint64_t db_size() const noexcept override { return vista_.db_size(); }

  void begin() override { vista_.begin_transaction(); }
  void set_range(std::uint64_t offset, std::uint64_t size) override {
    vista_.set_range(offset, size);
  }
  void commit() override { vista_.commit_transaction(); }
  void abort() override { vista_.abort_transaction(); }

  void set_trace(obs::TraceRecorder* trace, std::uint32_t track) override {
    vista_.set_trace(trace, track);
  }
  void export_metrics(obs::MetricsRegistry& reg) const override {
    vista_.export_metrics(reg, name());
  }

  [[nodiscard]] wal::Vista& vista() noexcept { return vista_; }

 private:
  netram::Cluster* cluster_;
  netram::NodeId node_;
  wal::Vista vista_;
};

class RemoteWalEngine final : public TxnEngine {
 public:
  RemoteWalEngine(netram::Cluster& cluster, netram::NodeId local,
                  netram::RemoteMemoryServer& mirror, disk::DiskModel& disk,
                  const wal::RemoteWalOptions& options);

  [[nodiscard]] std::string_view name() const noexcept override { return "remote-wal"; }
  [[nodiscard]] netram::Cluster& cluster() noexcept override { return *cluster_; }
  [[nodiscard]] netram::NodeId app_node() const noexcept override { return node_; }
  [[nodiscard]] std::span<std::byte> db() override { return wal_.db(); }
  [[nodiscard]] std::uint64_t db_size() const noexcept override { return wal_.db_size(); }

  void begin() override { wal_.begin_transaction(); }
  void set_range(std::uint64_t offset, std::uint64_t size) override {
    wal_.set_range(offset, size);
  }
  void commit() override { wal_.commit_transaction(); }
  void abort() override { wal_.abort_transaction(); }

  void set_trace(obs::TraceRecorder* trace, std::uint32_t track) override {
    wal_.set_trace(trace, track);
  }
  void export_metrics(obs::MetricsRegistry& reg) const override {
    wal_.export_metrics(reg, name());
  }

  [[nodiscard]] wal::RemoteWal& wal() noexcept { return wal_; }

 private:
  netram::Cluster* cluster_;
  netram::NodeId node_;
  wal::RemoteWal wal_;
};

class FsMirrorEngine final : public TxnEngine {
 public:
  FsMirrorEngine(netram::Cluster& cluster, netram::NodeId local,
                 netram::RemoteMemoryServer& file_server, const wal::FsMirrorOptions& options);

  [[nodiscard]] std::string_view name() const noexcept override { return "fs-mirror"; }
  [[nodiscard]] netram::Cluster& cluster() noexcept override { return *cluster_; }
  [[nodiscard]] netram::NodeId app_node() const noexcept override { return node_; }
  [[nodiscard]] std::span<std::byte> db() override { return mirror_.db(); }
  [[nodiscard]] std::uint64_t db_size() const noexcept override { return mirror_.db_size(); }

  void begin() override { mirror_.begin_transaction(); }
  void set_range(std::uint64_t offset, std::uint64_t size) override {
    mirror_.set_range(offset, size);
  }
  void commit() override { mirror_.commit_transaction(); }
  void abort() override { mirror_.abort_transaction(); }

  void export_metrics(obs::MetricsRegistry& reg) const override {
    mirror_.export_metrics(reg, name());
  }

  [[nodiscard]] wal::FsMirror& fs_mirror() noexcept { return mirror_; }

 private:
  netram::Cluster* cluster_;
  netram::NodeId node_;
  wal::FsMirror mirror_;
};

/// Which system an EngineLab should assemble.
enum class EngineKind {
  kPerseas,
  kVista,
  kRvmRio,
  kRvmDisk,
  kRvmDiskGroupCommit,
  kRvmNvram,
  kRemoteWal,
  kFsMirror,
};

[[nodiscard]] std::string_view to_string(EngineKind kind) noexcept;

struct LabOptions {
  std::uint64_t db_size = 1 << 20;
  sim::HardwareProfile profile = sim::HardwareProfile::forth_1997();
  std::uint64_t seed = 0x1998;
  /// Group size for kRvmDiskGroupCommit.
  std::uint32_t group_commit_size = 256;
  core::PerseasConfig perseas;
  std::uint64_t log_capacity = 8 << 20;
  std::uint64_t arena_bytes_per_node = 64ull << 20;

  /// Observability (both optional, not owned).  When `trace` is set the lab
  /// registers one track for the whole fixture, wires the cluster, the disk
  /// (if any), and the engine's own span emitters to it, and routes
  /// PerseasConfig::trace/metrics through it for the PERSEAS engine.
  obs::TraceRecorder* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Track name; defaults to the engine kind's name.
  std::string trace_label;
};

/// Owns a two-node cluster plus whatever substrate (disk, Rio cache, remote
/// memory server) the chosen engine needs.  The application always runs on
/// node 0; remote resources live on node 1.
class EngineLab {
 public:
  EngineLab(EngineKind kind, const LabOptions& options = {});

  [[nodiscard]] TxnEngine& engine() noexcept { return *engine_; }
  [[nodiscard]] netram::Cluster& cluster() noexcept { return *cluster_; }
  [[nodiscard]] EngineKind kind() const noexcept { return kind_; }
  /// The trace track the lab registered, or 0 when tracing is off.
  [[nodiscard]] std::uint32_t trace_track() const noexcept { return trace_track_; }

  /// Folds every layer's counters into `reg`: cluster, disk (if present),
  /// and the engine itself.  Call once per registry after the workload.
  void export_metrics(obs::MetricsRegistry& reg) const;

 private:
  EngineKind kind_;
  std::uint32_t trace_track_ = 0;
  std::unique_ptr<netram::Cluster> cluster_;
  std::unique_ptr<netram::RemoteMemoryServer> server_;
  std::unique_ptr<disk::DiskModel> disk_;
  std::unique_ptr<disk::DiskStore> disk_store_;
  std::unique_ptr<disk::NvramStore> nvram_store_;
  std::unique_ptr<rio::RioCache> rio_;
  std::unique_ptr<rio::RioStore> rio_store_;
  std::unique_ptr<TxnEngine> engine_;
};

}  // namespace perseas::workload
