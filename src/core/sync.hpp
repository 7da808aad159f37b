// perseas::sync — the repo's single concurrency vocabulary, checked at
// compile time.
//
// Every piece of mutable state the concurrent core shares between open
// transactions (and, next PR, between worker threads) is annotated with
// the capability attributes below and protected by a sync::Mutex.  Under
// clang the annotations feed -Wthread-safety, so "which lock guards this
// field" and "which lock must the caller hold" are machine-checked on
// every build (CMake option PERSEAS_THREAD_SAFETY, default ON, promotes
// the warnings to errors); other compilers see empty macros and identical
// codegen.  tools/perseas-lint.py rule C enforces that this header is the
// only place outside sim/ that may name std::mutex or std::thread: all
// locking flows through this vocabulary or it does not compile into the
// tree at all.
//
// Discipline (kept simple so the analysis stays exhaustive):
//   * each class owns its Mutex; guarded members carry
//     PERSEAS_GUARDED_BY(mu_);
//   * public entry points take sync::LockGuard at the top; private
//     helpers that expect the lock carry PERSEAS_REQUIRES(mu_);
//   * callbacks and lambdas never touch guarded members (clang analyzes a
//     lambda body as an unrelated function, so capability state would be
//     lost — copy into locals instead);
//   * a component owned by one lock holder keeps no mutex of its own: the
//     owner declares the member PERSEAS_GUARDED_BY(its mu_), so every call
//     into it is checked to run under the owner's lock (Perseas::mu_ over
//     UndoLog, MirrorSet and the CC policy with its ConflictTable);
//   * lock ordering is strictly outer-to-inner: Perseas::mu_ before the
//     cluster's failure-injector / flight-recorder lock, never the
//     reverse, and nothing under that inner lock calls back into Perseas.
//
// This header is layering-neutral on purpose: it depends only on the
// standard library, so sim/, netram/, obs/ and wal/ include it without
// pulling in any core type.
#pragma once

#include <mutex>
// __gnu_cxx::__is_single_threaded() reads glibc's __libc_single_threaded
// (glibc 2.32+); older libraries would only say whether libpthread is
// linked, which is no use here.
#if defined(__GLIBCXX__) && defined(_GLIBCXX_RELEASE) && _GLIBCXX_RELEASE >= 11 && \
    defined(__GLIBC_PREREQ)
#if __GLIBC_PREREQ(2, 32)
#include <ext/atomicity.h>
#define PERSEAS_SYNC_HAS_SINGLE_THREADED 1
#endif
#endif

// ---------------------------------------------------------------------------
// Attribute macros (clang thread-safety analysis; no-ops elsewhere).
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define PERSEAS_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PERSEAS_THREAD_ANNOTATION(x)  // not clang: annotations vanish
#endif

/// Declares a type to be a lockable capability ("mutex" in diagnostics).
#define PERSEAS_CAPABILITY(x) PERSEAS_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type that acquires in its constructor and releases in
/// its destructor.
#define PERSEAS_SCOPED_CAPABILITY PERSEAS_THREAD_ANNOTATION(scoped_lockable)

/// Member may only be read or written while holding the named capability.
#define PERSEAS_GUARDED_BY(x) PERSEAS_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member: the *pointee* may only be touched while holding it.
#define PERSEAS_PT_GUARDED_BY(x) PERSEAS_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the caller to already hold the capability.
#define PERSEAS_REQUIRES(...) \
  PERSEAS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define PERSEAS_ACQUIRE(...) \
  PERSEAS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define PERSEAS_RELEASE(...) \
  PERSEAS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function tries to acquire; first argument is the success return value.
#define PERSEAS_TRY_ACQUIRE(...) \
  PERSEAS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (self-deadlock guard for public
/// entry points that take the lock themselves).
#define PERSEAS_EXCLUDES(...) PERSEAS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define PERSEAS_RETURN_CAPABILITY(x) PERSEAS_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch for the analysis.  Deliberately unused in src/ (the
/// acceptance bar is zero suppressions); it exists for tests that probe
/// the annotations themselves.
#define PERSEAS_NO_THREAD_SAFETY_ANALYSIS \
  PERSEAS_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace perseas::sync {

/// One pause of a spin-wait: tells the core this is a busy loop (frees
/// the sibling hyperthread, saves power) without leaving the CPU.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// True while the process has never started a second thread (glibc's
/// __libc_single_threaded); false when the library cannot tell.
[[nodiscard]] inline bool single_threaded() noexcept {
#if defined(PERSEAS_SYNC_HAS_SINGLE_THREADED)
  return __gnu_cxx::__is_single_threaded();
#else
  return false;
#endif
}

/// The repo's mutex: std::mutex wearing the capability attribute, so
/// clang can track what it guards.  Non-reentrant; see the lock-ordering
/// rule in the header comment.  Locking charges no simulated time — the
/// sim clock is a model of 1998 hardware, the mutex is a property of the
/// 2026 process running it.
///
/// Spin, then park.  The library's critical sections are short (one
/// transaction operation), so a contended lock is usually free again
/// before a futex sleep and wake-up would even complete.  lock()
/// therefore retries try_lock() kSpinRounds times with a CPU pause
/// between tries before it parks in std::mutex::lock().  A process that
/// never started a thread skips the spin: glibc's plain lock() then
/// avoids the atomic instruction every try_lock() pays.
class PERSEAS_CAPABILITY("mutex") Mutex {
 public:
  /// try_lock() rounds before parking: roughly 4-15 us of waiting on
  /// current x86 (a pause is 10-140 cycles), several critical sections.
  /// On zipf-mt (4 threads, 4 vCPUs) 16 rounds parked too early, and
  /// 1024 gained nothing over 256.
  static constexpr int kSpinRounds = 256;

  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PERSEAS_ACQUIRE() {
    if (single_threaded()) {
      mu_.lock();
      return;
    }
    for (int i = 0; i < kSpinRounds; ++i) {
      if (mu_.try_lock()) return;
      cpu_relax();
    }
    mu_.lock();
  }
  void unlock() PERSEAS_RELEASE() { mu_.unlock(); }
  bool try_lock() PERSEAS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock with scope tracking: the analysis knows the capability is
/// held from construction to end of scope.  The only way library code
/// takes a Mutex.
class PERSEAS_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) PERSEAS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() PERSEAS_RELEASE() { mu_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace perseas::sync
