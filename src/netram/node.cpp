#include "netram/node.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <new>
#include <stdexcept>

namespace perseas::netram {
namespace {

std::byte* map_zeroed(std::uint64_t bytes) {
  if (bytes == 0) return nullptr;
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::byte*>(p);
}

}  // namespace

void Node::Unmap::operator()(std::byte* p) const noexcept {
  if (p != nullptr) ::munmap(p, bytes);
}

Node::Node(NodeId id, std::string name, std::uint64_t arena_bytes, std::uint32_t power_supply)
    : id_(id),
      name_(std::move(name)),
      arena_bytes_(arena_bytes),
      backing_(map_zeroed(arena_bytes), Unmap{arena_bytes}),
      allocator_(arena_bytes),
      power_supply_(power_supply) {}

void Node::wipe(std::byte fill) {
  sync::LockGuard lock(mark_mu_);
  untouched_ = fill;
  std::fill_n(backing_.get(), mark_.load(std::memory_order_relaxed), fill);
}

void Node::crash(sim::FailureKind kind) {
  crashed_ = true;
  ++crash_epoch_;
  last_failure_ = kind;
  // DRAM contents are gone.  0xDB ("dead byte") makes accidental reads of
  // lost memory visible in tests instead of silently reading zeros.
  wipe(std::byte{0xDB});
}

void Node::restart() {
  crashed_ = false;
  hang_until_ = 0;
  wipe(std::byte{0});
  allocator_.reset();
}

std::byte* Node::touch(std::uint64_t offset, std::uint64_t size) const {
  const std::uint64_t end = offset + size;
  if (end > arena_bytes_ || end < offset) {
    throw std::out_of_range("Node::mem: [" + std::to_string(offset) + ", +" +
                            std::to_string(size) + ") exceeds arena of node " + name_);
  }
  if (end > mark_.load(std::memory_order_acquire)) {
    sync::LockGuard lock(mark_mu_);
    const std::uint64_t mark = mark_.load(std::memory_order_relaxed);
    if (end > mark) {
      std::fill(backing_.get() + mark, backing_.get() + end, untouched_);
      mark_.store(end, std::memory_order_release);
    }
  }
  return backing_.get() + offset;
}

std::span<std::byte> Node::mem(std::uint64_t offset, std::uint64_t size) {
  return {touch(offset, size), size};
}

std::span<const std::byte> Node::mem(std::uint64_t offset, std::uint64_t size) const {
  return {touch(offset, size), size};
}

}  // namespace perseas::netram
