#include "obs/flight_recorder.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

namespace perseas::obs {
namespace {

/// Little-endian field writers: the dump is parsed by struct.unpack in
/// tools/perseas-blackbox.py, so the byte layout is explicit rather than
/// whatever the host struct padding happens to be.
void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_str(std::string& out, std::string_view s) {
  put_u16(out, static_cast<std::uint16_t>(s.size()));
  out.append(s.data(), s.size());
}

}  // namespace

FlightRecorder::FlightRecorder(const sim::SimClock& clock, sync::Mutex& mu,
                               std::size_t capacity)
    : clock_(&clock), capacity_(capacity == 0 ? 1 : capacity), mu_(mu) {}

void FlightRecorder::record(core::EventKind kind, std::uint64_t txn, std::uint64_t a,
                            std::uint64_t b, std::uint64_t c) noexcept {
  sync::LockGuard lock(mu_);
  if (!enabled_) return;
  record_locked(kind, txn, a, b, c);
}

void FlightRecorder::record_locked(core::EventKind kind, std::uint64_t txn,
                                   std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  FlightEvent e{recorded_, clock_->now(), kind, txn, a, b, c};
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else {
    ring_[next_] = e;
  }
  if (++next_ == capacity_) next_ = 0;
  ++recorded_;
}

std::uint64_t FlightRecorder::intern_locked(std::string_view s) {
  const auto addr = reinterpret_cast<std::uintptr_t>(s.data());
  for (std::size_t i = 0; i < string_addrs_.size(); ++i) {
    // Same address is not enough: a caller's buffer may since hold
    // another string.
    if (string_addrs_[i] == addr && strings_[i] == s) return i;
  }
  for (std::size_t i = 0; i < strings_.size(); ++i) {
    if (strings_[i] == s) {
      string_addrs_[i] = addr;
      return i;
    }
  }
  strings_.emplace_back(s);
  string_addrs_.push_back(addr);
  return strings_.size() - 1;
}

std::uint64_t FlightRecorder::intern(std::string_view s) {
  sync::LockGuard lock(mu_);
  return intern_locked(s);
}

void FlightRecorder::record_named(core::EventKind kind, std::uint64_t txn,
                                  std::string_view name, std::uint64_t b, std::uint64_t c) {
  sync::LockGuard lock(mu_);
  record_named_locked(kind, txn, name, b, c);
}

void FlightRecorder::record_named_locked(core::EventKind kind, std::uint64_t txn,
                                         std::string_view name, std::uint64_t b,
                                         std::uint64_t c) {
  const std::uint64_t id = intern_locked(name);
  if (enabled_) record_locked(kind, txn, id, b, c);
}

std::string FlightRecorder::interned(std::uint64_t id) const {
  sync::LockGuard lock(mu_);
  if (id >= strings_.size()) return "?";
  return strings_[id];
}

void FlightRecorder::set_enabled(bool on) noexcept {
  sync::LockGuard lock(mu_);
  enabled_ = on;
}

bool FlightRecorder::enabled() const noexcept {
  sync::LockGuard lock(mu_);
  return enabled_;
}

std::uint64_t FlightRecorder::recorded() const noexcept {
  sync::LockGuard lock(mu_);
  return recorded_;
}

std::uint64_t FlightRecorder::dropped() const noexcept {
  sync::LockGuard lock(mu_);
  return recorded_ - ring_.size();
}

std::size_t FlightRecorder::size() const noexcept {
  sync::LockGuard lock(mu_);
  return ring_.size();
}

std::vector<FlightEvent> FlightRecorder::events_locked(std::size_t n) const {
  const std::size_t held = ring_.size();
  const std::size_t want = (n == 0 || n > held) ? held : n;
  std::vector<FlightEvent> out;
  out.reserve(want);
  // The oldest retained event sits at next_ once the ring has wrapped;
  // before that the ring is a plain prefix array.
  const std::size_t first = (held < capacity_) ? 0 : next_;
  for (std::size_t i = held - want; i < held; ++i) {
    out.push_back(ring_[(first + i) % capacity_]);
  }
  return out;
}

std::vector<FlightEvent> FlightRecorder::events(std::size_t n) const {
  sync::LockGuard lock(mu_);
  return events_locked(n);
}

std::string render_flight_event(const FlightEvent& e,
                                const std::vector<std::string>& strings) {
  // Built by appending pieces: g++ 12's -Wrestrict misfires on
  // `"literal" + std::string&&` at -O3.
  const core::EventInfo* info = core::find_event(e.kind);
  std::string line = "@";
  line += std::to_string(e.ts);
  line += "ns ";
  if (e.txn != 0) {
    line += "txn=";
    line += std::to_string(e.txn);
  } else {
    line += "-";
  }
  line += " ";
  if (info != nullptr) {
    line += info->name;
  } else {
    line += "kind#";
    line += std::to_string(static_cast<unsigned>(e.kind));
  }
  const char* labels[3] = {info ? info->a : "a", info ? info->b : "b", info ? info->c : "c"};
  const std::uint64_t words[3] = {e.a, e.b, e.c};
  for (int i = 0; i < 3; ++i) {
    std::string_view label = labels[i];
    if (label.empty()) continue;
    const bool interned = label.front() == '$';
    if (interned) label.remove_prefix(1);
    line += " ";
    line += label;
    line += "=";
    if (!interned) {
      line += std::to_string(words[i]);
    } else if (words[i] < strings.size()) {
      line += strings[words[i]];
    } else {
      line += "?";
    }
  }
  return line;
}

std::vector<std::string> FlightRecorder::narrative(std::size_t n) const {
  sync::LockGuard lock(mu_);
  std::vector<std::string> out;
  for (const FlightEvent& e : events_locked(n)) {
    out.push_back(render_flight_event(e, strings_));
  }
  return out;
}

void FlightRecorder::dump_locked(const std::string& path) const {
  std::string buf;
  buf.append("PSEASFR1", 8);
  put_u64(buf, recorded_);
  put_u64(buf, recorded_ - ring_.size());
  put_u32(buf, static_cast<std::uint32_t>(core::kEventRegistryCount));
  for (const core::EventInfo& info : core::kEventRegistry) {
    put_u16(buf, static_cast<std::uint16_t>(info.kind));
    put_str(buf, info.name);
    put_str(buf, info.category);
    put_str(buf, info.a);
    put_str(buf, info.b);
    put_str(buf, info.c);
  }
  put_u32(buf, static_cast<std::uint32_t>(strings_.size()));
  for (const std::string& s : strings_) put_str(buf, s);
  const auto events = events_locked(0);
  put_u32(buf, static_cast<std::uint32_t>(events.size()));
  for (const FlightEvent& e : events) {
    put_u64(buf, e.seq);
    put_u64(buf, static_cast<std::uint64_t>(e.ts));
    put_u16(buf, static_cast<std::uint16_t>(e.kind));
    put_u64(buf, e.txn);
    put_u64(buf, e.a);
    put_u64(buf, e.b);
    put_u64(buf, e.c);
  }

  errno = 0;
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("FlightRecorder::dump: cannot open '" + path +
                             "': " + std::strerror(errno));
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  out.flush();
  if (!out) {
    throw std::runtime_error("FlightRecorder::dump: short write to '" + path +
                             "': " + std::strerror(errno));
  }
}

void FlightRecorder::dump(const std::string& path) const {
  sync::LockGuard lock(mu_);
  dump_locked(path);
}

void FlightRecorder::set_dump_path(std::string path) {
  sync::LockGuard lock(mu_);
  dump_path_ = std::move(path);
}

std::string FlightRecorder::dump_path() const {
  sync::LockGuard lock(mu_);
  return dump_path_;
}

void FlightRecorder::note_anomaly(std::string_view what) noexcept {
  try {
    record_named(core::EventKind::kAnomaly, 0, what);
    const std::string path = dump_path();
    if (!path.empty()) dump(path);
  } catch (...) {
    // Anomaly paths are already unwinding; the blackbox must never turn a
    // diagnosable failure into a crash of its own.
  }
}

}  // namespace perseas::obs
