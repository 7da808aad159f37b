// A simulated workstation: processor, DRAM arena, power-supply attachment,
// and crash state.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "core/sync.hpp"
#include "netram/arena_allocator.hpp"
#include "sim/failure.hpp"
#include "sim/sim_time.hpp"

namespace perseas::netram {

using NodeId = std::uint32_t;

/// One workstation in the cluster.  All mutation goes through Cluster so
/// that liveness checks and cost accounting are applied uniformly; Node
/// itself only owns state.
///
/// The arena models the full `arena_bytes` of DRAM (the allocator and the
/// bounds checks see all of it), but host memory is touched only up to a
/// high-water mark: the furthest byte mem() has ever handed out.  Bytes
/// past the mark logically hold the fill of the last crash or restart
/// (0xDB or 0) and receive it when mem() first reaches them, so every byte
/// a caller can observe is the same as with a fully materialised arena.
class Node {
 public:
  Node(NodeId id, std::string name, std::uint64_t arena_bytes, std::uint32_t power_supply);

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint32_t power_supply() const noexcept { return power_supply_; }
  void attach_power_supply(std::uint32_t supply) noexcept { power_supply_ = supply; }

  [[nodiscard]] bool crashed() const noexcept { return crashed_; }
  /// Incremented on every crash; lets services detect that their host lost
  /// its state between two requests.
  [[nodiscard]] std::uint64_t crash_epoch() const noexcept { return crash_epoch_; }
  [[nodiscard]] sim::FailureKind last_failure() const noexcept { return last_failure_; }

  /// Takes the node down.  All DRAM contents are lost: the arena is filled
  /// with a garbage pattern (not zeros) so that code which wrongly reads
  /// post-crash memory fails loudly in tests.
  void crash(sim::FailureKind kind);

  /// Brings the node back up with empty, zeroed memory.
  void restart();

  /// Node is up but temporarily unresponsive until simulated time
  /// `until` (a crashed file server, paper section 1).  Stalls accessors,
  /// loses nothing.
  void hang_until(sim::SimTime until) noexcept { hang_until_ = until; }
  [[nodiscard]] sim::SimTime hang_until() const noexcept { return hang_until_; }

  /// Bounds-checked view of arena memory.  Caller (Cluster) has already
  /// verified liveness; this throws only on out-of-range access, which is a
  /// simulation bug rather than a modelled fault.
  [[nodiscard]] std::span<std::byte> mem(std::uint64_t offset, std::uint64_t size);
  [[nodiscard]] std::span<const std::byte> mem(std::uint64_t offset, std::uint64_t size) const;

  [[nodiscard]] ArenaAllocator& allocator() noexcept { return allocator_; }
  [[nodiscard]] const ArenaAllocator& allocator() const noexcept { return allocator_; }
  /// Modelled DRAM capacity.
  [[nodiscard]] std::uint64_t arena_bytes() const noexcept { return arena_bytes_; }
  /// High-water mark: host memory behind [0, touched_bytes()) is the only
  /// part of the arena ever written; crash() and restart() cost this much.
  [[nodiscard]] std::uint64_t touched_bytes() const noexcept {
    return mark_.load(std::memory_order_acquire);
  }

 private:
  /// Unmaps the backing.  Anonymous mmap rather than calloc: its pages are
  /// zero and untouched until written under every allocator, including the
  /// sanitizers', whose calloc would clear and shadow all of them.
  struct Unmap {
    std::uint64_t bytes;
    void operator()(std::byte* p) const noexcept;
  };

  /// Bounds-checks [offset, offset + size), moves the mark past it and
  /// returns its first byte.  Const because it changes no observable byte.
  [[nodiscard]] std::byte* touch(std::uint64_t offset, std::uint64_t size) const;

  /// Writes `fill` over [0, mark) and makes it the byte untouched memory
  /// holds from now on.
  void wipe(std::byte fill);

  NodeId id_;
  std::string name_;
  std::uint64_t arena_bytes_;
  std::unique_ptr<std::byte[], Unmap> backing_;
  ArenaAllocator allocator_;
  std::uint32_t power_supply_;
  bool crashed_ = false;
  std::uint64_t crash_epoch_ = 0;
  sim::FailureKind last_failure_ = sim::FailureKind::kSoftwareCrash;
  sim::SimTime hang_until_ = 0;

  // Worker threads call mem() concurrently: the mark is read lock-free on
  // the common path and only advanced (and filled up to) under the lock.
  mutable sync::Mutex mark_mu_;
  mutable std::atomic<std::uint64_t> mark_{0};
  std::byte untouched_ PERSEAS_GUARDED_BY(mark_mu_) = std::byte{0};
};

}  // namespace perseas::netram
