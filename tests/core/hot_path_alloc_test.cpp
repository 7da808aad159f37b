// Allocation guard for the steady-state transaction path.
//
// A PERSEAS transaction is a few memory copies and SCI stores; its host
// bookkeeping (undo images, the remote-log serialize buffer, the write
// set, conflict claims, the flight ring, failure-point interning) reuses
// storage once warm instead of going back to the heap every time.  This
// test counts every global operator new over a window of figure-6-shaped
// transactions — 8 MB database, one mirror, 64 B single-range updates —
// after the 4,096-event flight ring has filled, and pins the average.
//
// AddressSanitizer and ThreadSanitizer replace operator new themselves, so
// a counting replacement here would not see (or would fight) theirs; the
// test skips under those sanitizers only.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "obs/flight_recorder.hpp"
#include "workload/engines.hpp"
#include "workload/synthetic.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERSEAS_ALLOC_COUNTER 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERSEAS_ALLOC_COUNTER 0
#endif
#endif
#ifndef PERSEAS_ALLOC_COUNTER
#define PERSEAS_ALLOC_COUNTER 1
#endif

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

#if PERSEAS_ALLOC_COUNTER
// Counting replacements of the global allocation functions.  Only the plain
// and array forms are replaced; the aligned, nothrow and sized-delete
// variants forward to these through the standard library.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace perseas::workload {
namespace {

constexpr std::uint64_t kTxnBytes = 64;
/// Comfortably more than the flight ring's 4,096 events (a committed
/// 64 B transaction records about ten), so the ring has stopped growing.
constexpr std::uint64_t kWarmupTxns = 5000;
constexpr std::uint64_t kMeasuredTxns = 1000;
/// Average allocations per transaction the steady state may make.
constexpr double kMaxAllocsPerTxn = 3.0;

TEST(HotPathAlloc, SteadyStateTransactionsBarelyAllocate) {
#if !PERSEAS_ALLOC_COUNTER
  GTEST_SKIP() << "the sanitizer runtime owns operator new in this build";
#else
  LabOptions lo;
  lo.db_size = 8 << 20;
  lo.perseas.undo_capacity = 4 << 20;
  EngineLab lab(EngineKind::kPerseas, lo);
  SyntheticWorkload wl(lab.engine(), kTxnBytes, /*seed=*/7);

  for (std::uint64_t i = 0; i < kWarmupTxns; ++i) wl.run_one();
  ASSERT_GT(lab.cluster().flight().recorded(), obs::FlightRecorder::kDefaultCapacity);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < kMeasuredTxns; ++i) wl.run_one();
  const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;

  const double per_txn = static_cast<double>(allocations) / kMeasuredTxns;
  RecordProperty("allocations_per_txn", std::to_string(per_txn));
  EXPECT_LE(per_txn, kMaxAllocsPerTxn)
      << allocations << " allocations over " << kMeasuredTxns << " transactions";
#endif
}

}  // namespace
}  // namespace perseas::workload
