// perfbench: host and simulated cost of PERSEAS on three workloads.
//
//   perfbench --workload <small-txn|zipf-mt|crash-sweep> --seed N --seconds S
//             --trace <0|1> [--tiny]
//
// Two clocks are reported.  Host cost is the wall-clock time of the library
// and simulator themselves (std::chrono::steady_clock); modelled cost is the
// deterministic sim::SimClock time that fig5/fig6/table1 report, in units
// prefixed "sim_".  Every workload is a closed loop driven through the public
// APIs of workload, core, netram and mc; nothing under src/ is changed or
// instrumented.
//
// --trace 0 measures the end-to-end metrics with the benchmark's own tracing
// off.  --trace 1 is a separate run that times each call into a layer's
// public functions from outside (TimedEngine, timed fixture calls) and
// reads the simulator's own counters; it reports the per-layer metrics.  A
// traced run measures the named workload for the full --seconds and then
// runs the other two workloads' traced sections briefly, so that every
// per-layer metric has a value; a metric is taken from the first section
// that measures it, the named workload's own section first.
//
// Output checks run in every run; a failed check makes the run fail.  The
// last line of standard output is one JSON document; perfbench/run.py turns
// it into the benchmark's result line.  --tiny shrinks every size for the
// self-test.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/layout.hpp"
#include "core/perseas.hpp"
#include "mc/fixture.hpp"
#include "mc/model_checker.hpp"
#include "mc/workload.hpp"
#include "netram/cluster.hpp"
#include "netram/remote_memory.hpp"
#include "obs/cost_ledger.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/random.hpp"
#include "timed_engine.hpp"
#include "workload/engines.hpp"
#include "workload/mt_driver.hpp"
#include "workload/synthetic.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace perseas;
using Clock = std::chrono::steady_clock;

// --- statistics --------------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Quantile with linear interpolation between closest ranks; 0 for no data.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Host throughput of a run with long rounds (zipf-mt, crash-sweep): the
/// 90th percentile of the per-round rates.  On a shared host other tenants
/// slow a varying share of the rounds; the upper rounds vary least.
double sustained_rate(const std::vector<double>& round_rates) {
  return quantile(round_rates, 0.9);
}

/// Host throughput of small-txn: its fastest timed window of
/// Sizes::small_round transactions (about 1 ms).  A single thread on a
/// shared host runs in two modes (about 420k and 240k txns/s on a 4-vCPU
/// KVM guest of a Xeon Sapphire Rapids host), and the share of time in the
/// fast one swings from under 1% to over half between runs, so any
/// percentile below the top jumps between the modes (quartile spreads of
/// 15-35% over sets of ten runs), while the best window repeats within
/// 5-8%.  Like the minimum of repeated timings, it measures the code
/// without the interference.
double best_rate(const std::vector<double>& window_rates) {
  return window_rates.empty() ? 0.0 : *std::max_element(window_rates.begin(), window_rates.end());
}

/// Exact quantiles of durations in whole ns, in fixed memory (so that peak
/// RSS does not grow with the number of transactions a run manages): one
/// counter per value below kRange, the rare longer durations kept as-is.
class Histogram {
 public:
  void add(double ns) {
    const auto v = static_cast<std::uint64_t>(std::llround(std::max(ns, 0.0)));
    if (v < kRange) {
      ++counts_[v];
    } else {
      long_.push_back(v);
    }
    ++n_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  /// Nearest-rank quantile; 0 for no data.
  [[nodiscard]] double quantile(double q) const {
    if (n_ == 0) return 0.0;
    const auto rank = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_))), 1, n_);
    std::uint64_t seen = 0;
    for (std::size_t v = 0; v < kRange; ++v) {
      seen += counts_[v];
      if (seen >= rank) return static_cast<double>(v);
    }
    std::vector<std::uint64_t> tail = long_;
    std::sort(tail.begin(), tail.end());
    return static_cast<double>(tail[rank - seen - 1]);
  }

 private:
  static constexpr std::size_t kRange = std::size_t{1} << 17;  // 131 us
  std::vector<std::uint32_t> counts_ = std::vector<std::uint32_t>(kRange);
  std::vector<std::uint64_t> long_;
  std::uint64_t n_ = 0;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  return sim::SplitMix64(seed * 0x9e3779b97f4a7c15ULL + stream).next();
}

// --- results -------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< observations behind the value
};
using Metrics = std::map<std::string, Metric>;

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< output checks that did not hold
  Metrics end_to_end;                 ///< the benchmark's workload-generic names
  Metrics named;                      ///< the workload's own names for the same figures
  Metrics layer;                      ///< per-layer metrics (traced run)
  obs::Json config = obs::Json::object();

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  /// Adds `m` unless a section merged earlier already measured it.
  void add_layer(const std::string& name, Metric m) { layer.emplace(name, std::move(m)); }
};

obs::Json metrics_json(const Metrics& ms) {
  obs::Json out = obs::Json::object();
  for (const auto& [name, m] : ms) {
    out.set(name, obs::Json::object()
                      .set("value", m.value)
                      .set("unit", m.unit)
                      .set("samples", m.samples));
  }
  return out;
}

void print_metrics(const char* title, const Metrics& ms) {
  if (ms.empty()) return;
  std::printf("%s\n", title);
  for (const auto& [name, m] : ms) {
    std::printf("  %-40s %16.6g %-10s n=%llu\n", name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
}

// --- sizes -------------------------------------------------------------------

struct Sizes {
  int setups;                          ///< set-ups per run; setup_s is their median
  double warmup_s;                     ///< untimed work before the timed window
  std::uint64_t small_round;           ///< small-txn transactions per timed window
  std::uint64_t zipf_txns_per_thread;  ///< zipf-mt commits per worker per round
  std::uint64_t mc_budget;             ///< crash-sweep explorations per checker run
  int sim_explorations;                ///< crash-sweep explorations timed on the sim clock
  double side_section_s;               ///< traced run: time for the other workloads
};

Sizes sizes(bool tiny) {
  if (tiny) return Sizes{1, 0.02, 64, 25, 2, 1, 0.1};
  return Sizes{9, 1.0, 256, 1000, 8, 5, 1.0};
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
};

// --- the PERSEAS system under test ---------------------------------------------

constexpr std::uint64_t kSmallTxnBytes = 64;
constexpr std::uint64_t kZipfRows = 16384;
constexpr std::uint64_t kZipfRowBytes = 64;
constexpr std::uint64_t kMcTxns = 4;
constexpr std::uint64_t kMcDbBytes = 1024;

/// The figure-6 lab: an 8 MB database, a 4 MB undo log, one mirror.
workload::LabOptions small_txn_options() {
  workload::LabOptions lo;
  lo.db_size = 8 << 20;
  lo.perseas.undo_capacity = 4 << 20;
  return lo;
}

/// Default lab options; the 1 MB database holds exactly the zipf-mt rows.
workload::LabOptions zipf_options() {
  workload::LabOptions lo;
  lo.db_size = kZipfRows * kZipfRowBytes;
  return lo;
}

workload::ContentionOptions contention_options(std::uint32_t threads,
                                               std::uint64_t txns_per_thread,
                                               std::uint64_t seed) {
  workload::ContentionOptions o;
  o.threads = threads;
  o.txns_per_thread = txns_per_thread;
  o.rows = kZipfRows;
  o.row_bytes = kZipfRowBytes;
  o.theta = 0.9;
  o.write_ratio = 0.5;
  o.short_ops = 4;
  o.long_ops = 32;
  o.long_fraction = 0.1;
  o.seed = seed;
  return o;
}

mc::McOptions crash_options(std::uint64_t seed, std::uint64_t budget) {
  mc::McOptions o;
  o.engine = "perseas";
  o.workload = "debit-credit";
  o.txns = kMcTxns;
  o.db_size = kMcDbBytes;
  o.seed = seed;
  o.budget = budget;
  return o;
}

obs::Json config_json(const core::PerseasConfig& c) {
  const char* cc = "fww";
  if (c.cc_policy == core::CcPolicyKind::kWaitDie) cc = "wait-die";
  if (c.cc_policy == core::CcPolicyKind::kValidateAtCommit) cc = "validate";
  return obs::Json::object()
      .set("undo_capacity", c.undo_capacity)
      .set("coalesce_ranges", c.coalesce_ranges)
      .set("cc_policy", cc)
      .set("validate_writes", c.validate_writes);
}

/// What workload::EngineLab builds for EngineKind::kPerseas -- a two-node
/// cluster, a remote-memory server on node 1, PerseasEngine on node 0 --
/// but keeping the server reachable, so the mirror's copy of the database
/// can be read back and checked.
class PerseasSystem {
 public:
  explicit PerseasSystem(const workload::LabOptions& lo)
      : cluster_(lo.profile, netram::ClusterConfig{.node_count = 2,
                                                   .arena_bytes_per_node =
                                                       lo.arena_bytes_per_node,
                                                   .seed = lo.seed}),
        server_(cluster_, 1),
        engine_(cluster_, 0, {&server_}, lo.db_size, wire_observability(lo)) {}

  [[nodiscard]] workload::PerseasEngine& engine() noexcept { return engine_; }
  [[nodiscard]] netram::Cluster& cluster() noexcept { return cluster_; }
  [[nodiscard]] const core::PerseasStats& stats() { return engine_.perseas().stats(); }

  /// The mirror's copy of the database equals the local image.
  [[nodiscard]] bool mirror_matches_local() {
    netram::RemoteMemoryClient client(cluster_, 0);
    const auto segment =
        client.sci_connect_segment(server_, core::db_key(0, engine_.perseas().config().name));
    if (!segment) return false;
    std::vector<std::byte> copy(engine_.db_size());
    client.sci_memcpy_read(*segment, 0, copy);
    return std::memcmp(copy.data(), engine_.db().data(), copy.size()) == 0;
  }

  /// The configuration that actually ran (after any override).
  [[nodiscard]] obs::Json effective_config() {
    const core::Perseas& db = engine_.perseas();
    return config_json(db.config())
        .set("db_bytes", engine_.db_size())
        .set("mirrors", static_cast<std::uint64_t>(db.mirror_count()))
        .set("observer_installed", db.validating());
  }

 private:
  core::PerseasConfig wire_observability(const workload::LabOptions& lo) {
    core::PerseasConfig pc = lo.perseas;
    if (lo.trace != nullptr) {
      const std::uint32_t track = lo.trace->register_track(lo.trace_label);
      cluster_.set_trace(lo.trace, track);
      pc.trace = lo.trace;
      pc.trace_track = track;
    }
    pc.metrics = lo.metrics;
    return pc;
  }

  netram::Cluster cluster_;
  netram::RemoteMemoryServer server_;
  workload::PerseasEngine engine_;
};

std::uint32_t zipf_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return std::clamp<std::uint32_t>(n, 1, 4);
}

// --- per-layer helpers --------------------------------------------------------

const char* const kLedgerPhases[] = {"begin",    "set_range", "local_undo", "remote_undo",
                                     "commit",   "validate",  "flag_set",   "propagate",
                                     "flag_clear", "abort",   "cc_wait",    "unattributed"};

/// Sums a ledger's per-phase simulated ns into `acc`, then clears it (the
/// ledger keeps one row per transaction, so it is drained every round).
void drain_ledger(obs::CostLedger& ledger, std::map<std::string, double>& acc) {
  for (const auto& [phase, ns] : ledger.by_phase()) acc[phase] += static_cast<double>(ns);
  ledger.clear();
}

void add_ledger_metrics(Result& r, const std::map<std::string, double>& acc, double txns) {
  double total = 0.0;
  for (const auto& [phase, ns] : acc) total += ns;
  for (const char* phase : kLedgerPhases) {
    const auto it = acc.find(phase);
    const double ns = it == acc.end() ? 0.0 : it->second;
    r.add_layer(std::string("core.sim_ns_per_txn.") + phase,
                {ns / txns, "sim_ns", static_cast<std::uint64_t>(txns)});
  }
  const auto un = acc.find("unattributed");
  r.add_layer("obs.ledger.unattributed_share",
              {total > 0 && un != acc.end() ? un->second / total : 0.0, "ratio",
               static_cast<std::uint64_t>(txns)});
}

void add_call_metrics(Result& r, const TimedEngine& timed) {
  const std::pair<TimedEngine::Op, const char*> calls[] = {{TimedEngine::kBegin, "begin"},
                                                           {TimedEngine::kSetRange, "set_range"},
                                                           {TimedEngine::kCommit, "commit"},
                                                           {TimedEngine::kAbort, "abort"}};
  for (const auto& [op, name] : calls) {
    const std::vector<double> ns = timed.samples(op);
    if (ns.empty()) continue;  // e.g. no aborts: another section measures it
    r.add_layer(std::string("core.") + name + ".host_ns", {median(ns), "ns", ns.size()});
  }
}

/// Simulator counters per transaction over a window.
void add_counter_metrics(Result& r, const core::PerseasStats& s0, const core::PerseasStats& s1,
                         const netram::NetworkStats& n0, const netram::NetworkStats& n1,
                         double txns) {
  const auto n = static_cast<std::uint64_t>(txns);
  auto per = [&](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a) / txns; };
  r.add_layer("core.set_ranges_per_txn", {per(s0.set_ranges, s1.set_ranges), "count", n});
  r.add_layer("core.undo_remote_bytes_per_txn",
              {per(s0.bytes_undo_remote, s1.bytes_undo_remote), "B", n});
  r.add_layer("core.propagated_bytes_per_txn",
              {per(s0.bytes_propagated, s1.bytes_propagated), "B", n});
  r.add_layer("netram.remote_writes_per_txn",
              {per(n0.remote_writes, n1.remote_writes), "count", n});
  r.add_layer("netram.remote_write_bytes_per_txn",
              {per(n0.remote_write_bytes, n1.remote_write_bytes), "B", n});
  r.add_layer("netram.full_packets_per_txn", {per(n0.full_packets, n1.full_packets), "count", n});
  r.add_layer("netram.partial_packets_per_txn",
              {per(n0.partial_packets, n1.partial_packets), "count", n});
  r.add_layer("netram.local_memcpy_bytes_per_txn",
              {per(n0.local_memcpy_bytes, n1.local_memcpy_bytes), "B", n});
}

// --- small-txn ------------------------------------------------------------------

/// Runs `n` transactions of `wl`; returns host ns per transaction.
double host_ns_per_txn(workload::SyntheticWorkload& wl, std::uint64_t n) {
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < n; ++i) wl.run_one();
  return ns_since(t0) / static_cast<double>(n);
}

/// host_ns_per_txn after a few untimed transactions, so that a round does
/// not pay for the caches the previous variant's round (the validator's
/// 8 MB snapshots above all) left cold.
constexpr std::uint64_t kWarmTxns = 16;

double warm_host_ns_per_txn(workload::SyntheticWorkload& wl, std::uint64_t n) {
  for (std::uint64_t i = 0; i < kWarmTxns; ++i) wl.run_one();
  return host_ns_per_txn(wl, n);
}

/// Untimed transactions, so caches fill and lazy set-up finishes first.
void warm_up(workload::SyntheticWorkload& wl, double seconds, std::uint64_t& issued) {
  for (const auto t0 = Clock::now(); seconds_since(t0) < seconds; issued += 256) {
    host_ns_per_txn(wl, 256);
  }
}

/// The timed window is split over z.setups systems, each built anew, so a
/// host figure reflects several placements of the 8 MB database and the
/// 64 MB node arenas in memory, not one.
Result run_small_txn(const Args& a, const Sizes& z) {
  Result r;
  std::vector<double> setups, round_rate;
  Histogram host_ns, sim_ns;
  sim::SimDuration sim_total = 0;
  for (int s = 0; s < z.setups; ++s) {
    const auto built = Clock::now();
    PerseasSystem sys(small_txn_options());
    setups.push_back(seconds_since(built));
    workload::SyntheticWorkload wl(sys.engine(), kSmallTxnBytes, mix_seed(a.seed, s));
    std::uint64_t issued = 0;
    warm_up(wl, z.warmup_s / z.setups, issued);

    sim::SimClock& clock = sys.cluster().clock();
    const sim::SimTime sim0 = clock.now();
    const auto start = Clock::now();
    do {
      const auto r0 = Clock::now();
      for (std::uint64_t i = 0; i < z.small_round; ++i) {
        const auto t0 = Clock::now();
        const sim::SimDuration d = wl.run_one();
        host_ns.add(ns_since(t0));
        sim_ns.add(static_cast<double>(d));
      }
      round_rate.push_back(static_cast<double>(z.small_round) / seconds_since(r0));
      issued += z.small_round;
    } while (seconds_since(start) < a.seconds / z.setups);
    sim_total += clock.now() - sim0;

    r.check(sys.stats().txns_committed == issued,
            "small-txn: txns_committed " + std::to_string(sys.stats().txns_committed) +
                " != transactions issued " + std::to_string(issued));
    r.check(sys.mirror_matches_local(),
            "small-txn: the mirror's copy differs from the local image");
    if (s == 0) r.config = sys.effective_config();
  }
  const std::uint64_t n = host_ns.count();
  r.attempted = n;

  r.named["setup_s"] = {median(setups), "s", setups.size()};
  r.named["host_txns_per_s"] = {best_rate(round_rate), "1/s", round_rate.size()};
  r.named["host_txn_us_p50"] = {host_ns.quantile(0.50) / 1e3, "us", n};
  r.named["host_txn_us_p99"] = {host_ns.quantile(0.99) / 1e3, "us", n};
  r.named["sim_txns_per_s"] = {static_cast<double>(n) / sim::to_seconds(sim_total), "1/sim_s", n};
  r.named["sim_txn_us_p50"] = {sim_ns.quantile(0.50) / 1e3, "sim_us", n};
  r.named["sim_txn_us_p99"] = {sim_ns.quantile(0.99) / 1e3, "sim_us", n};

  r.end_to_end["setup_s"] = r.named["setup_s"];
  r.end_to_end["host_ops_per_s"] = r.named["host_txns_per_s"];
  r.end_to_end["sim_ops_per_s"] = r.named["sim_txns_per_s"];
  return r;
}

/// Traced small-txn: round by round, the bare loop ("plain") interleaved
/// with the same transactions through TimedEngine ("timed", the benchmark's
/// own tracing) and with one program instrument at a time attached -- a
/// cost ledger on the cluster, the TxnTracer (LabOptions::trace and metrics
/// set), the write-set validator (validate_writes).  Each one's host cost is
/// its round median minus the plain median.  The ledger finds a row by a
/// linear scan, so its cost per transaction grows with the rows it holds; it
/// is drained every kLedgerRound transactions and its cost is quoted at
/// that size.  The validator snapshots the whole 8 MB record per
/// transaction, so its rounds are short.
constexpr std::uint64_t kLedgerRound = 256;
constexpr std::uint64_t kValidatorRound = 8;

Result trace_small_txn(const Args& a, const Sizes& z, double seconds) {
  Result r;
  PerseasSystem base(small_txn_options());

  obs::TraceRecorder trace;
  obs::MetricsRegistry registry;
  workload::LabOptions traced_lo = small_txn_options();
  traced_lo.trace = &trace;
  traced_lo.metrics = &registry;
  traced_lo.trace_label = "perfbench";
  PerseasSystem with_tracer(traced_lo);

  workload::LabOptions validated_lo = small_txn_options();
  validated_lo.perseas.validate_writes = true;
  PerseasSystem with_validator(validated_lo);

  TimedEngine timed(base.engine());
  obs::CostLedger ledger;
  workload::SyntheticWorkload plain_wl(base.engine(), kSmallTxnBytes, mix_seed(a.seed, 1));
  workload::SyntheticWorkload timed_wl(timed, kSmallTxnBytes, mix_seed(a.seed, 2));
  workload::SyntheticWorkload tracer_wl(with_tracer.engine(), kSmallTxnBytes, mix_seed(a.seed, 3));
  workload::SyntheticWorkload validator_wl(with_validator.engine(), kSmallTxnBytes,
                                           mix_seed(a.seed, 4));

  enum Variant { kPlain, kTimed, kLedger, kTracer, kValidator, kVariants };
  std::vector<double> per_txn[kVariants];
  std::map<std::string, double> phases;
  std::uint64_t base_txns = 0, ledger_txns = 0;
  const core::PerseasStats s0 = base.stats();
  const netram::NetworkStats n0 = base.cluster().stats();

  const auto start = Clock::now();
  for (int cycle = 0; cycle < 2 || seconds_since(start) < seconds; ++cycle) {
    // Cycle 0 warms every system up and is not recorded.
    const std::uint64_t n = z.small_round;
    // Alternate which of the two goes first, so that neither always
    // follows the validator's round.
    double plain = 0.0, timed_ns = 0.0;
    if (cycle % 2 == 0) {
      plain = warm_host_ns_per_txn(plain_wl, n);
      timed_ns = warm_host_ns_per_txn(timed_wl, n);
    } else {
      timed_ns = warm_host_ns_per_txn(timed_wl, n);
      plain = warm_host_ns_per_txn(plain_wl, n);
    }
    base.cluster().set_ledger(&ledger);
    const double with_ledger = host_ns_per_txn(plain_wl, kLedgerRound);
    base.cluster().set_ledger(nullptr);
    drain_ledger(ledger, phases);
    const double tracer = warm_host_ns_per_txn(tracer_wl, n);
    trace.clear();
    const double validator = host_ns_per_txn(validator_wl, kValidatorRound);
    base_txns += 2 * (n + kWarmTxns) + kLedgerRound;
    if (cycle == 0) {
      phases.clear();
      continue;
    }
    ledger_txns += kLedgerRound;
    per_txn[kPlain].push_back(plain);
    per_txn[kTimed].push_back(timed_ns);
    per_txn[kLedger].push_back(with_ledger);
    per_txn[kTracer].push_back(tracer);
    per_txn[kValidator].push_back(validator);
  }

  r.check(base.stats().txns_committed == base_txns,
          "small-txn (traced): txns_committed differs from transactions issued");
  r.check(base.mirror_matches_local(),
          "small-txn (traced): the mirror's copy differs from the local image");
  r.check(with_validator.engine().perseas().validating(),
          "small-txn (traced): validate_writes installed no validator");
  const core::PerseasStats s1 = base.stats();
  r.attempted = base_txns;

  const std::uint64_t rounds = per_txn[kPlain].size();
  const double plain = median(per_txn[kPlain]);
  auto overhead = [&](Variant v) { return Metric{median(per_txn[v]) - plain, "ns", rounds}; };
  add_call_metrics(r, timed);
  add_ledger_metrics(r, phases, static_cast<double>(ledger_txns));
  add_counter_metrics(r, s0, s1, n0, base.cluster().stats(), static_cast<double>(base_txns));
  r.add_layer("obs.ledger.host_ns_per_txn", overhead(kLedger));
  r.add_layer("obs.tracer.host_ns_per_txn", overhead(kTracer));
  r.add_layer("check.validator.host_ns_per_txn", overhead(kValidator));
  r.add_layer("bench.trace_overhead_ns_per_txn", overhead(kTimed));
  r.config = base.effective_config();
  return r;
}

// --- zipf-mt ---------------------------------------------------------------------

struct ZipfRound {
  workload::ContentionResult res;
  double wall_s = 0.0;
};

/// One run_contention round on `engine`, with its output checks.
ZipfRound zipf_round(Result& r, workload::TxnEngine& engine, PerseasSystem& sys,
                     std::uint32_t threads, std::uint64_t txns_per_thread, std::uint64_t seed) {
  const std::uint64_t conflicted0 = sys.stats().txns_conflicted;
  ZipfRound round;
  const auto t0 = Clock::now();
  round.res = workload::run_contention(engine, contention_options(threads, txns_per_thread, seed));
  round.wall_s = seconds_since(t0);
  const std::uint64_t conflicted = sys.stats().txns_conflicted - conflicted0;
  r.check(round.res.commits == threads * txns_per_thread,
          "zipf-mt: " + std::to_string(round.res.commits) + " commits != threads x txns");
  r.check(round.res.conflicts == conflicted,
          "zipf-mt: " + std::to_string(round.res.conflicts) +
              " conflicts != PerseasStats::txns_conflicted delta " + std::to_string(conflicted));
  return round;
}

/// Like small-txn, the timed window is split over z.setups fresh systems.
Result run_zipf_mt(const Args& a, const Sizes& z) {
  Result r;
  const std::uint32_t threads = zipf_threads();
  std::vector<double> setups, round_rate;
  Histogram sim_ns;
  std::uint64_t commits = 0, conflicts = 0, round_no = 0;
  sim::SimDuration makespan = 0;
  for (int s = 0; s < z.setups; ++s) {
    const auto built = Clock::now();
    PerseasSystem sys(zipf_options());
    setups.push_back(seconds_since(built));
    for (const auto t0 = Clock::now(); seconds_since(t0) < z.warmup_s / z.setups;) {
      zipf_round(r, sys.engine(), sys, threads, z.zipf_txns_per_thread / 4,
                 mix_seed(a.seed, round_no++));
    }
    const auto start = Clock::now();
    do {
      const ZipfRound round = zipf_round(r, sys.engine(), sys, threads, z.zipf_txns_per_thread,
                                         mix_seed(a.seed, round_no++));
      round_rate.push_back(static_cast<double>(round.res.commits) / round.wall_s);
      commits += round.res.commits;
      conflicts += round.res.conflicts;
      makespan += round.res.makespan_ns;
      for (const auto& w : round.res.workers) {
        for (const sim::SimDuration d : w.latencies) sim_ns.add(static_cast<double>(d));
      }
    } while (seconds_since(start) < a.seconds / z.setups);
    if (s == 0) r.config = sys.effective_config();
  }
  r.attempted = commits;
  r.config.set("threads", static_cast<std::uint64_t>(threads));

  r.named["setup_s"] = {median(setups), "s", setups.size()};
  r.named["host_txns_per_s"] = {sustained_rate(round_rate), "1/s", round_rate.size()};
  r.named["sim_txns_per_s"] = {static_cast<double>(commits) / sim::to_seconds(makespan),
                               "1/sim_s", commits};
  r.named["sim_txn_us_p50"] = {sim_ns.quantile(0.50) / 1e3, "sim_us", sim_ns.count()};
  r.named["sim_txn_us_p99"] = {sim_ns.quantile(0.99) / 1e3, "sim_us", sim_ns.count()};
  const std::uint64_t attempts = commits + conflicts;
  r.named["abort_ratio"] = {static_cast<double>(conflicts) / static_cast<double>(attempts),
                            "ratio", attempts};

  r.end_to_end["setup_s"] = r.named["setup_s"];
  r.end_to_end["host_ops_per_s"] = r.named["host_txns_per_s"];
  r.end_to_end["sim_ops_per_s"] = r.named["sim_txns_per_s"];
  return r;
}

/// Traced zipf-mt: rounds whose workers drive TimedEngine alternate with
/// short rounds on the bare engine with a cost ledger attached (drained
/// after each; see kLedgerRound), so the call timings carry no ledger cost.
constexpr std::uint64_t kZipfLedgerTxnsPerThread = 64;

Result trace_zipf_mt(const Args& a, const Sizes& z, double seconds) {
  Result r;
  const std::uint32_t threads = zipf_threads();
  PerseasSystem sys(zipf_options());
  TimedEngine timed(sys.engine());
  obs::CostLedger ledger;
  std::map<std::string, double> phases;

  // Warm-up round, not recorded.
  zipf_round(r, sys.engine(), sys, threads, z.zipf_txns_per_thread / 4, mix_seed(a.seed, 100));
  const core::PerseasStats s0 = sys.stats();
  const netram::NetworkStats n0 = sys.cluster().stats();
  std::uint64_t commits = 0, ledger_commits = 0;
  const auto start = Clock::now();
  for (std::uint64_t round_no = 0; round_no == 0 || seconds_since(start) < seconds; ++round_no) {
    commits += zipf_round(r, timed, sys, threads, z.zipf_txns_per_thread,
                          mix_seed(a.seed, 1000 + round_no))
                   .res.commits;
    sys.cluster().set_ledger(&ledger);
    const std::uint64_t c = zipf_round(r, sys.engine(), sys, threads,
                                       std::min(kZipfLedgerTxnsPerThread, z.zipf_txns_per_thread),
                                       mix_seed(a.seed, 2000 + round_no))
                                .res.commits;
    sys.cluster().set_ledger(nullptr);
    drain_ledger(ledger, phases);
    commits += c;
    ledger_commits += c;
  }

  r.attempted = commits;
  add_call_metrics(r, timed);
  add_ledger_metrics(r, phases, static_cast<double>(ledger_commits));
  add_counter_metrics(r, s0, sys.stats(), n0, sys.cluster().stats(), static_cast<double>(commits));
  r.config = sys.effective_config();
  r.config.set("threads", static_cast<std::uint64_t>(threads));
  return r;
}

// --- crash-sweep -------------------------------------------------------------------

/// One exploration driven by hand through the mc fixture: build the fixture,
/// run the debit-credit transactions, crash the application node after the
/// last commit, restart it and recover -- each step timed from outside.
struct Exploration {
  double crash_ms = 0, restart_ms = 0, recover_ms = 0, total_ms = 0;
  std::vector<double> begin_ns, set_range_ns, commit_ns;
  sim::SimDuration sim_ns = 0;  ///< transactions + crash + restart + recovery
};

Exploration explore_once(Result& r, std::uint64_t seed) {
  Exploration e;
  mc::McFixtureOptions fo;
  fo.db_size = kMcDbBytes;
  fo.seed = seed;
  const mc::McWorkloadSpec spec = mc::make_workload("debit-credit", kMcTxns, kMcDbBytes, seed);

  const auto start = Clock::now();
  const std::unique_ptr<mc::McFixture> fx = mc::make_fixture("perseas", fo);
  netram::Cluster& cluster = fx->cluster();
  const sim::SimTime sim0 = cluster.clock().now();
  std::vector<std::byte> expected(fx->db().begin(), fx->db().end());

  for (std::size_t t = 0; t < spec.txns.size(); ++t) {
    auto t0 = Clock::now();
    fx->begin();
    e.begin_ns.push_back(ns_since(t0));
    for (std::size_t k = 0; k < spec.txns[t].ops.size(); ++k) {
      const mc::McOp& op = spec.txns[t].ops[k];
      t0 = Clock::now();
      fx->set_range(op.offset, op.size);
      e.set_range_ns.push_back(ns_since(t0));
      mc::fill_op(fx->db().subspan(op.offset, op.size), t, k);
      mc::fill_op(std::span(expected).subspan(op.offset, op.size), t, k);
    }
    t0 = Clock::now();
    fx->commit();
    e.commit_ns.push_back(ns_since(t0));
  }

  auto t0 = Clock::now();
  cluster.crash_node(0, sim::FailureKind::kSoftwareCrash);
  e.crash_ms = ns_since(t0) / 1e6;
  t0 = Clock::now();
  cluster.restart_node(0);
  e.restart_ms = ns_since(t0) / 1e6;
  t0 = Clock::now();
  fx->recover();
  e.recover_ms = ns_since(t0) / 1e6;
  e.total_ms = ns_since(start) / 1e6;
  e.sim_ns = cluster.clock().now() - sim0;

  const std::span<const std::byte> db = fx->db();
  r.check(std::equal(db.begin(), db.end(), expected.begin(), expected.end()),
          "crash-sweep: recovery lost a committed transaction (seed " + std::to_string(seed) + ")");
  try {
    fx->check_hygiene();
  } catch (const std::exception& ex) {
    r.check(false, std::string("crash-sweep: ") + ex.what());
  }
  return e;
}

/// One ModelChecker run with the fixed budget, with its output checks.
mc::McResult checker_run(Result& r, std::uint64_t seed, std::uint64_t budget) {
  mc::McResult res = mc::ModelChecker(crash_options(seed, budget)).run();
  r.check(res.ok(), "crash-sweep: the model checker found " +
                        std::to_string(res.violations.size()) + " violation(s)");
  r.check(res.explorations == budget, "crash-sweep: " + std::to_string(res.explorations) +
                                          " explorations != budget " + std::to_string(budget));
  r.failed += res.violations.size();
  return res;
}

Result run_crash_sweep(const Args& a, const Sizes& z) {
  Result r;
  // Set-up: the checker's discovery pass (one clean run that enumerates the
  // reachable failure points) -- everything before the first exploration.
  std::vector<double> setups;
  for (int i = 0; i < z.setups; ++i) {
    mc::McOptions o = crash_options(mix_seed(a.seed, 1000 + i), 0);
    o.discover_only = true;
    const auto t0 = Clock::now();
    const mc::McResult res = mc::ModelChecker(o).run();
    setups.push_back(seconds_since(t0));
    r.check(!res.points.empty(), "crash-sweep: discovery found no failure points");
  }

  std::vector<double> rate;
  std::uint64_t explorations = 0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i == 0 || seconds_since(start) < a.seconds; ++i) {
    const auto t0 = Clock::now();
    const mc::McResult res = checker_run(r, mix_seed(a.seed, i), z.mc_budget);
    rate.push_back(static_cast<double>(res.explorations) / seconds_since(t0));
    explorations += res.explorations;
  }
  r.attempted = explorations;

  // Modelled cost, outside the timed window: simulated time of whole
  // explorations (transactions, crash, restart, recovery).
  std::vector<double> sim_ns;
  for (int i = 0; i < z.sim_explorations; ++i) {
    sim_ns.push_back(static_cast<double>(explore_once(r, mix_seed(a.seed, 2000 + i)).sim_ns));
  }
  double sim_total_s = 0.0;
  for (const double ns : sim_ns) sim_total_s += ns / 1e9;

  // The mc fixture keeps its Perseas private; with the environment clear it
  // runs PerseasConfig's defaults, apart from the undo capacity it sets.
  r.config = config_json(core::PerseasConfig{})
                 .set("undo_capacity", mc::McFixtureOptions{}.perseas_undo_capacity)
                 .set("engine", "perseas")
                 .set("mc_workload", "debit-credit")
                 .set("mc_txns", kMcTxns)
                 .set("mc_db_bytes", kMcDbBytes)
                 .set("mc_budget", z.mc_budget);

  r.named["setup_s"] = {median(setups), "s", setups.size()};
  r.named["mc_explorations_per_s"] = {sustained_rate(rate), "1/s", rate.size()};
  r.named["sim_explorations_per_s"] = {static_cast<double>(sim_ns.size()) / sim_total_s,
                                       "1/sim_s", sim_ns.size()};
  r.named["sim_exploration_us_p50"] = {median(sim_ns) / 1e3, "sim_us", sim_ns.size()};

  r.end_to_end["setup_s"] = r.named["setup_s"];
  r.end_to_end["host_ops_per_s"] = r.named["mc_explorations_per_s"];
  r.end_to_end["sim_ops_per_s"] = r.named["sim_explorations_per_s"];
  return r;
}

Result trace_crash_sweep(const Args& a, const Sizes& z, double seconds) {
  Result r;
  std::vector<double> build_ms;
  for (int i = 0; i < std::max(1, z.setups / 2); ++i) {
    const auto t0 = Clock::now();
    const netram::Cluster cluster(sim::HardwareProfile::forth_1997(), 2);
    build_ms.push_back(ns_since(t0) / 1e6);
  }

  std::vector<double> crash_ms, restart_ms, recover_ms, total_ms, begin_ns, set_range_ns,
      commit_ns;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i == 0 || seconds_since(start) < seconds; ++i) {
    Exploration e = explore_once(r, mix_seed(a.seed, 3000 + i));
    crash_ms.push_back(e.crash_ms);
    restart_ms.push_back(e.restart_ms);
    recover_ms.push_back(e.recover_ms);
    total_ms.push_back(e.total_ms);
    begin_ns.insert(begin_ns.end(), e.begin_ns.begin(), e.begin_ns.end());
    set_range_ns.insert(set_range_ns.end(), e.set_range_ns.begin(), e.set_range_ns.end());
    commit_ns.insert(commit_ns.end(), e.commit_ns.begin(), e.commit_ns.end());
  }
  const mc::McResult res = checker_run(r, mix_seed(a.seed, 0), z.mc_budget);
  r.attempted = total_ms.size() + res.explorations;

  r.add_layer("netram.cluster_build.host_ms", {median(build_ms), "ms", build_ms.size()});
  r.add_layer("netram.crash_node.host_ms", {median(crash_ms), "ms", crash_ms.size()});
  r.add_layer("netram.restart_node.host_ms", {median(restart_ms), "ms", restart_ms.size()});
  r.add_layer("core.recover.host_ms", {median(recover_ms), "ms", recover_ms.size()});
  r.add_layer("mc.exploration.host_ms", {median(total_ms), "ms", total_ms.size()});
  r.add_layer("mc.explorations", {static_cast<double>(res.explorations), "count", 1});
  r.add_layer("mc.crashed", {static_cast<double>(res.crashed), "count", 1});
  r.add_layer("core.begin.host_ns", {median(begin_ns), "ns", begin_ns.size()});
  r.add_layer("core.set_range.host_ns", {median(set_range_ns), "ns", set_range_ns.size()});
  r.add_layer("core.commit.host_ns", {median(commit_ns), "ns", commit_ns.size()});
  return r;
}

// --- main -----------------------------------------------------------------------------

struct Workload {
  const char* name;
  Result (*run)(const Args&, const Sizes&);
  Result (*trace)(const Args&, const Sizes&, double seconds);
};

const Workload kWorkloads[] = {
    {"small-txn", run_small_txn, trace_small_txn},
    {"zipf-mt", run_zipf_mt, trace_zipf_mt},
    {"crash-sweep", run_crash_sweep, trace_crash_sweep},
};

/// Traced run: the named workload's section for the full time, then the
/// other sections briefly; the first section to measure a metric wins.
Result run_traced(const Workload& w, const Args& a, const Sizes& z) {
  Result r = w.trace(a, z, a.seconds);
  for (const Workload& other : kWorkloads) {
    if (&other == &w) continue;
    Result side = other.trace(a, z, z.side_section_s);
    r.failures.insert(r.failures.end(), side.failures.begin(), side.failures.end());
    r.failed += side.failed;
    for (auto& [name, m] : side.layer) r.add_layer(name, m);
  }
  return r;
}

/// Environment variables that silently change the program under test.
std::vector<std::string> perseas_environment() {
  std::vector<std::string> set;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PERSEAS_", 8) == 0) set.emplace_back(*e);
  }
  return set;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

obs::Json build_stamp() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  constexpr bool kOptimised = true;
#else
  constexpr bool kOptimised = false;
#endif
  return obs::Json::object()
      .set("build_type", PERFBENCH_BUILD_TYPE)
      .set("cxx_flags", PERFBENCH_CXX_FLAGS)
      .set("optimised", kOptimised)
      .set("compiler", kCompiler)
      .set("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <small-txn|zipf-mt|crash-sweep> "
               "--seed N --seconds S --trace <0|1> [--tiny]\n",
               why);
  return 2;
}

int run(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      a.tiny = true;
    } else if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      a.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      a.trace = std::string(argv[++i]) != "0";
    } else {
      return usage(("unknown or incomplete argument " + arg).c_str());
    }
  }
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads) {
    if (a.workload == k.name) w = &k;
  }
  if (w == nullptr) return usage(("unknown workload '" + a.workload + "'").c_str());
  if (!(a.seconds > 0)) return usage("--seconds must be positive");
  if (const auto env = perseas_environment(); !env.empty()) {
    for (const std::string& e : env) {
      std::fprintf(stderr, "perfbench: refusing to run with %s\n", e.c_str());
    }
    return 2;
  }

  const Sizes z = sizes(a.tiny);
  Result r = a.trace ? run_traced(*w, a, z) : w->run(a, z);
  if (!a.trace) {
    r.named["peak_rss_mb"] = {peak_rss_mb(), "MB", 1};
    r.end_to_end["peak_rss_mb"] = r.named["peak_rss_mb"];
  }
  const bool correct = r.failures.empty();

  std::printf("perfbench %s (seed %llu, %.3g s, trace %d)\n", w->name,
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0);
  print_metrics("workload metrics:", r.named);
  print_metrics("per-layer metrics:", r.layer);
  for (const std::string& f : r.failures) std::printf("CHECK FAILED: %s\n", f.c_str());

  obs::Json failures = obs::Json::array();
  for (const std::string& f : r.failures) failures.push(f);
  obs::Json stamp = build_stamp();
  stamp.set("seed", a.seed).set("seconds", a.seconds).set("tiny", a.tiny);
  const obs::Json doc = obs::Json::object()
                            .set("workload", w->name)
                            .set("trace", a.trace)
                            .set("correct", correct)
                            .set("attempted", r.attempted)
                            .set("failed", r.failed)
                            .set("failures", std::move(failures))
                            .set("end_to_end", metrics_json(r.end_to_end))
                            .set("named", metrics_json(r.named))
                            .set("per_layer", metrics_json(r.layer))
                            .set("config", r.config)
                            .set("stamp", std::move(stamp));
  std::printf("%s\n", doc.dump().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
