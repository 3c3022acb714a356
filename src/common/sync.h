#ifndef PIYE_COMMON_SYNC_H_
#define PIYE_COMMON_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

/// Annotated synchronization primitives for the whole codebase.
///
/// Every lock in PRIVATE-IYE guards part of the privacy trust anchor —
/// budget state, auditor verdicts, warehouse epochs, WAL ordering — so lock
/// discipline here is a *privacy* invariant, not just a liveness one. This
/// header promotes that discipline from convention to compile-time proof:
/// the `Mutex` / `MutexLock` / `CondVar` wrappers carry Clang
/// thread-safety capability attributes, and the `GUARDED_BY` / `REQUIRES` /
/// `EXCLUDES` macro family lets every subsystem declare which fields a lock
/// protects and which functions demand it held. Building with
///
///   clang++ -Wthread-safety -Werror=thread-safety
///
/// (the CI "analysis" leg, see scripts/ci.sh) then rejects any unguarded
/// access to a guarded field, any missing-lock call to a `REQUIRES`
/// function, and any double-acquire of a capability. On compilers without
/// the analysis (GCC) the attributes expand to nothing and the wrappers are
/// zero-cost shims over the std primitives, so the annotated tree builds
/// everywhere.
///
/// Rules of the road (enforced by tools/piye_lint):
///  - raw `std::mutex` / `std::condition_variable` / lock guards are banned
///    outside this header — use `piye::Mutex`, `piye::CondVar`,
///    `piye::MutexLock`;
///  - `NO_THREAD_SAFETY_ANALYSIS` is banned outside this header: there is no
///    escape hatch in application code, an analysis failure is a real bug or
///    a missing annotation;
///  - condition-variable predicates are written as explicit `while` loops in
///    the waiting function (not lambdas), so the analysis sees the guarded
///    reads under the scoped capability.

// ---------------------------------------------------------------------------
// Clang thread-safety annotation macros (no-ops on other compilers). The
// names follow the exclusive-capability set from the Clang Thread Safety
// Analysis documentation, so the annotations read like the upstream
// literature. Every lock here is exclusive; there is no reader/writer lock.
// ---------------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#define PIYE_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define PIYE_THREAD_ANNOTATION_(x)  // no-op on GCC/MSVC
#endif

#define CAPABILITY(x) PIYE_THREAD_ANNOTATION_(capability(x))
#define SCOPED_CAPABILITY PIYE_THREAD_ANNOTATION_(scoped_lockable)
#define GUARDED_BY(x) PIYE_THREAD_ANNOTATION_(guarded_by(x))
#define PT_GUARDED_BY(x) PIYE_THREAD_ANNOTATION_(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) PIYE_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) PIYE_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
#define REQUIRES(...) PIYE_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define ACQUIRE(...) PIYE_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define RELEASE(...) PIYE_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  PIYE_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) PIYE_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) PIYE_THREAD_ANNOTATION_(assert_capability(x))
#define RETURN_CAPABILITY(x) PIYE_THREAD_ANNOTATION_(lock_returned(x))
// The one escape hatch. Used only inside this header (enforced by
// piye_lint's analysis-escape rule): application code has no business
// opting out of the proof.
#define NO_THREAD_SAFETY_ANALYSIS \
  PIYE_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace piye {

/// Exclusive mutex carrying the "mutex" capability. A thin shim over
/// std::mutex; prefer the RAII `MutexLock` over manual Lock/Unlock.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The underlying std::mutex, for CondVar's wait plumbing only.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// RAII exclusive lock over a `Mutex` (scoped capability). Holds a
/// std::unique_lock underneath so `CondVar` can wait on it; the analysis
/// treats the capability as held for the guard's whole scope (CondVar::Wait
/// releases and reacquires atomically, which preserves that contract at
/// every point the guarded code actually runs).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : lock_(mu.native()) {}
  ~MutexLock() RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// The underlying unique_lock, for CondVar's wait plumbing only.
  std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable paired with `Mutex`/`MutexLock`. Waits take the RAII
/// guard (proof the capability is held); predicates are expressed as
/// explicit while-loops at the call site so guarded reads stay visible to
/// the analysis:
///
///   MutexLock lock(mu_);
///   while (!done_) cv_.Wait(lock);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) { cv_.wait(lock.native()); }

  std::cv_status WaitUntil(MutexLock& lock,
                           std::chrono::steady_clock::time_point deadline) {
    return cv_.wait_until(lock.native(), deadline);
  }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(MutexLock& lock,
                         const std::chrono::duration<Rep, Period>& timeout) {
    return cv_.wait_for(lock.native(), timeout);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace piye

#endif  // PIYE_COMMON_SYNC_H_
