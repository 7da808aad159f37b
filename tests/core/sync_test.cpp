// Behaviour of perseas::sync::Mutex (src/core/sync.hpp): a contended
// lock() spins kSpinRounds try_lock() rounds, then parks in
// std::mutex::lock(); a single-threaded process takes the plain lock().
// Whatever path a lock() takes, it must still exclude.
//
// The single-threaded test skips itself once the process has started a
// thread: glibc's "single threaded" flag drops for good then.
#include "core/sync.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace {

using perseas::sync::LockGuard;
using perseas::sync::Mutex;

TEST(SyncMutexTest, SingleThreadedPathLocksAndUnlocks) {
  if (!perseas::sync::single_threaded()) GTEST_SKIP() << "process already threaded";
  Mutex mu;
  std::uint64_t n = 0;
  for (int i = 0; i < 1000; ++i) {
    LockGuard lock(mu);
    ++n;
  }
  EXPECT_EQ(n, 1000u);
  mu.lock();
  mu.unlock();
  ASSERT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(SyncMutexTest, FourThreadsIncrementExactly) {
  Mutex mu;
  std::uint64_t counter = 0;  // deliberately plain: mu is the only guard
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50000;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        LockGuard lock(mu);
        ++counter;
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
#if defined(PERSEAS_SYNC_HAS_SINGLE_THREADED)
  EXPECT_FALSE(perseas::sync::single_threaded());
#endif
  EXPECT_EQ(counter, kThreads * kPerThread);
}

TEST(SyncMutexTest, TryLockFailsWhileHeldAndSucceedsWhenFree) {
  Mutex mu;
  ASSERT_TRUE(mu.try_lock());
  bool acquired = true;
  // try_lock from the owning thread is undefined for std::mutex: probe
  // from another thread.
  std::thread([&] { acquired = mu.try_lock(); }).join();
  EXPECT_FALSE(acquired);
  mu.unlock();
  std::thread([&] {
    acquired = mu.try_lock();
    if (acquired) mu.unlock();
  }).join();
  EXPECT_TRUE(acquired);
}

TEST(SyncMutexTest, WaiterParksPastTheSpinBudgetAndStillGetsTheLock) {
  Mutex mu;
  std::atomic<bool> holding{false};
  std::atomic<bool> released{false};
  std::atomic<bool> saw_release{false};
  mu.lock();
  std::thread waiter([&] {
    holding.wait(false);
    mu.lock();  // far past kSpinRounds: this parks in std::mutex::lock()
    saw_release.store(released.load(std::memory_order_acquire), std::memory_order_relaxed);
    mu.unlock();
  });
  holding.store(true);
  holding.notify_one();
  // Any spin budget is microseconds; the waiter has long given up
  // spinning when the holder lets go.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  released.store(true, std::memory_order_release);
  mu.unlock();
  waiter.join();
  EXPECT_TRUE(saw_release.load()) << "the waiter got the lock before the holder released it";
  ASSERT_TRUE(mu.try_lock());
  mu.unlock();
}

}  // namespace
