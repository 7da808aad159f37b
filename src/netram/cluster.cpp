#include "netram/cluster.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "core/event_registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perseas::netram {

Cluster::Cluster(const sim::HardwareProfile& profile, const ClusterConfig& config)
    : profile_(profile), link_(profile.sci), rng_(config.seed), flight_(clock_) {
  if (config.node_count == 0) throw std::invalid_argument("Cluster: need at least one node");
  nodes_.reserve(config.node_count);
  for (std::uint32_t i = 0; i < config.node_count; ++i) {
    std::uint32_t supply = 0;
    if (config.per_node_power_supplies || supplies_.empty()) {
      supply = add_power_supply("ups-" + std::to_string(i));
    }
    nodes_.push_back(std::make_unique<Node>(i, "node-" + std::to_string(i),
                                            config.arena_bytes_per_node, supply));
  }
  // Every injector firing — any engine, any layer — lands in the blackbox.
  // The observer runs under the injector's lock and before armed actions,
  // so each point's firings are recorded in hit order, and a
  // crash-injecting action still leaves its firing on record.
  failures_.set_observer([this](std::string_view point, std::uint64_t hits) {
    flight_.record_named(core::EventKind::kFailurePoint, 0, point, hits);
  });
  if (const char* path = std::getenv("PERSEAS_BLACKBOX"); path != nullptr && *path != '\0') {
    flight_.set_dump_path(path);
  }
}

Cluster::Cluster(const sim::HardwareProfile& profile, std::uint32_t node_count)
    : Cluster(profile, ClusterConfig{.node_count = node_count}) {}

Node& Cluster::node(NodeId id) {
  if (id >= nodes_.size()) throw std::out_of_range("Cluster::node: bad id");
  return *nodes_[id];
}

const Node& Cluster::node(NodeId id) const {
  if (id >= nodes_.size()) throw std::out_of_range("Cluster::node: bad id");
  return *nodes_[id];
}

std::uint32_t Cluster::add_power_supply(std::string name) {
  supplies_.push_back(sim::PowerSupply{std::move(name), false});
  return static_cast<std::uint32_t>(supplies_.size() - 1);
}

void Cluster::attach_power(NodeId node_id, std::uint32_t supply) {
  if (supply >= supplies_.size()) throw std::out_of_range("Cluster::attach_power: bad supply");
  node(node_id).attach_power_supply(supply);
}

void Cluster::fail_power_supply(std::uint32_t supply) {
  if (supply >= supplies_.size()) throw std::out_of_range("fail_power_supply: bad supply");
  supplies_[supply].failed = true;
  for (auto& n : nodes_) {
    if (n->power_supply() == supply && !n->crashed()) {
      n->crash(sim::FailureKind::kPowerOutage);
      flight_.record(core::EventKind::kNodeCrash, 0, n->id(),
                     static_cast<std::uint64_t>(sim::FailureKind::kPowerOutage));
    }
  }
}

void Cluster::restore_power_supply(std::uint32_t supply) {
  if (supply >= supplies_.size()) throw std::out_of_range("restore_power_supply: bad supply");
  supplies_[supply].failed = false;
}

void Cluster::crash_node(NodeId id, sim::FailureKind kind) {
  node(id).crash(kind);
  flight_.record(core::EventKind::kNodeCrash, 0, id, static_cast<std::uint64_t>(kind));
}

void Cluster::restart_node(NodeId id) {
  Node& n = node(id);
  if (n.power_supply() < supplies_.size() && supplies_[n.power_supply()].failed) {
    throw std::logic_error("restart_node: power supply " +
                           supplies_[n.power_supply()].name + " is still down");
  }
  n.restart();
}

void Cluster::hang_node(NodeId id, sim::SimDuration d) {
  node(id).hang_until(clock_.now() + d);
}

void Cluster::require_alive(NodeId id) {
  Node& n = node(id);
  if (n.crashed()) throw sim::NodeCrashed(id, n.last_failure(), "");
  if (n.hang_until() > clock_.now()) {
    // A hung node delays service but loses nothing (paper section 1).
    clock_.advance(n.hang_until() - clock_.now());
  }
}

sim::SimDuration Cluster::remote_write(NodeId local, NodeId remote, std::uint64_t remote_offset,
                                       std::span<const std::byte> data, StreamHint hint,
                                       bool optimized) {
  require_alive(local);
  require_alive(remote);
  if (data.empty()) return 0;

  const SciStoreBreakdown b = optimized
                                  ? link_.optimized_store_burst(remote_offset, data.size(), hint)
                                  : link_.store_burst(remote_offset, data.size(), hint);
  const sim::SimTime start = clock_.now();
  clock_.advance(b.total);

  auto dst = node(remote).mem(remote_offset, data.size());
  std::memcpy(dst.data(), data.data(), data.size());

  ++stats_.remote_writes;
  stats_.remote_write_bytes += data.size();
  stats_.full_packets += b.full_packets;
  stats_.partial_packets += b.partial_packets;
  flight_.record(core::EventKind::kSciBurst, 0, remote, data.size(), 1);
  if (ledger_ != nullptr) ledger_->add_bytes(data.size());
  if (trace_ != nullptr) {
    // Per-store SciStoreBreakdown: how the burst split into full/partial
    // SCI packets, the quantity figure 4's cost model is built on.
    trace_->complete(trace_track_, static_cast<std::uint32_t>(local), "net", "sci.store",
                     start, b.total,
                     {{"to", remote},
                      {"offset", remote_offset},
                      {"bytes", data.size()},
                      {"full_packets", b.full_packets},
                      {"partial_packets", b.partial_packets}});
  }
  return b.total;
}

sim::SimDuration Cluster::remote_read(NodeId local, NodeId remote, std::uint64_t remote_offset,
                                      std::span<std::byte> out) {
  require_alive(local);
  require_alive(remote);
  if (out.empty()) return 0;

  const sim::SimDuration cost = link_.read_burst(remote_offset, out.size());
  const sim::SimTime start = clock_.now();
  clock_.advance(cost);

  auto src = node(remote).mem(remote_offset, out.size());
  std::memcpy(out.data(), src.data(), out.size());

  ++stats_.remote_reads;
  stats_.remote_read_bytes += out.size();
  flight_.record(core::EventKind::kSciBurst, 0, remote, out.size(), 0);
  if (ledger_ != nullptr) ledger_->add_bytes(out.size());
  if (trace_ != nullptr) {
    trace_->complete(trace_track_, static_cast<std::uint32_t>(local), "net", "sci.read", start,
                     cost, {{"from", remote}, {"offset", remote_offset}, {"bytes", out.size()}});
  }
  return cost;
}

sim::SimDuration Cluster::control_rpc(NodeId local, NodeId remote) {
  require_alive(local);
  require_alive(remote);
  const sim::SimDuration cost = profile_.sci.control_rtt;
  const sim::SimTime start = clock_.now();
  clock_.advance(cost);
  ++stats_.control_rpcs;
  if (trace_ != nullptr) {
    trace_->complete(trace_track_, static_cast<std::uint32_t>(local), "net", "sci.rpc", start,
                     cost, {{"to", remote}});
  }
  return cost;
}

sim::SimDuration Cluster::charge_local_memcpy(NodeId node_id, std::uint64_t bytes) {
  require_alive(node_id);
  const sim::SimDuration cost =
      profile_.memory.memcpy_fixed + sim::transfer_time(bytes, profile_.memory.memcpy_bytes_per_sec);
  const sim::SimTime start = clock_.now();
  clock_.advance(cost);
  ++stats_.local_memcpys;
  stats_.local_memcpy_bytes += bytes;
  if (trace_ != nullptr) {
    trace_->complete(trace_track_, static_cast<std::uint32_t>(node_id), "mem", "mem.copy",
                     start, cost, {{"bytes", bytes}});
  }
  return cost;
}

void Cluster::charge_cpu(NodeId node_id, sim::SimDuration d) {
  require_alive(node_id);
  clock_.advance(d);
}

void Cluster::set_ledger(obs::CostLedger* ledger) noexcept {
  ledger_ = ledger;
  clock_.set_observer(ledger);
}

void Cluster::set_trace(obs::TraceRecorder* trace, std::uint32_t track) {
  trace_ = trace;
  trace_track_ = track;
  if (trace_ != nullptr) {
    for (const auto& n : nodes_) {
      trace_->set_thread_name(track, static_cast<std::uint32_t>(n->id()), n->name());
    }
  }
}

void Cluster::export_metrics(obs::MetricsRegistry& reg) const {
  const auto count = [&](std::string_view name, std::string_view help, std::uint64_t v,
                         std::string_view labels = "") { reg.counter(name, help, labels).add(v); };
  count("netram_remote_writes_total", "SCI store bursts", stats_.remote_writes);
  count("netram_remote_reads_total", "SCI read bursts", stats_.remote_reads);
  count("netram_control_rpcs_total", "Control-plane round trips", stats_.control_rpcs);
  count("netram_local_memcpys_total", "Charged local memory copies", stats_.local_memcpys);
  const char* bytes_help = "Bytes moved per netram channel";
  count("netram_bytes_total", bytes_help, stats_.remote_write_bytes,
        "channel=\"remote_write\"");
  count("netram_bytes_total", bytes_help, stats_.remote_read_bytes, "channel=\"remote_read\"");
  count("netram_bytes_total", bytes_help, stats_.local_memcpy_bytes,
        "channel=\"local_memcpy\"");
  const char* pkt_help = "SCI packets per kind (figure 4's cost split)";
  count("netram_sci_packets_total", pkt_help, stats_.full_packets, "kind=\"full\"");
  count("netram_sci_packets_total", pkt_help, stats_.partial_packets, "kind=\"partial\"");
  reg.gauge("netram_sim_clock_ns", "Simulated clock at dump time")
      .set(static_cast<double>(clock_.now()));
  reg.gauge("netram_nodes", "Workstations in the cluster")
      .set(static_cast<double>(nodes_.size()));
}

}  // namespace perseas::netram
