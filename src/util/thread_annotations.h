// Clang thread-safety capability annotations + an annotated mutex stack.
//
// The locking contracts of the concurrent subsystems (ThreadPool's task
// arena, the fallible MapReduce round state, the loopback engine's scratch
// pool, the global pool singleton) are declared with Clang's thread-safety attributes
// so `-Wthread-safety -Werror` proves them at compile time — the same
// certified-at-the-source philosophy the screening tiers apply to numerics.
// Under compilers without the analysis (g++) every macro expands to nothing
// and the wrappers below compile to exactly std::mutex /
// std::condition_variable code.
//
// Conventions (enforced by the `analyze` CI job, see README "Static
// analysis & concurrency contracts"):
//   * Shared mutable state is a member annotated DIVERSE_GUARDED_BY(mu_).
//   * Internal helpers that assume the lock are DIVERSE_REQUIRES(mu_)
//     and take no lock themselves.
//   * Public entry points that take the lock are DIVERSE_EXCLUDES(mu_)
//     (documents non-reentrancy; the analysis rejects self-deadlock).
//   * Condition waits are explicit `while (!cond) cv.Wait(mu);` loops —
//     never predicate lambdas, which the analysis cannot see into.
//   * Escape hatches need a justification comment on the same line:
//     `DIVERSE_NO_THREAD_SAFETY_ANALYSIS  // why the analysis is wrong`.

#ifndef DIVERSE_UTIL_THREAD_ANNOTATIONS_H_
#define DIVERSE_UTIL_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define DIVERSE_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define DIVERSE_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

/// Type attribute: this class is a lockable capability ("mutex").
#define DIVERSE_CAPABILITY(x) DIVERSE_THREAD_ANNOTATION(capability(x))

/// Type attribute: RAII object that acquires in its constructor and
/// releases in its destructor.
#define DIVERSE_SCOPED_CAPABILITY DIVERSE_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding the capability.
#define DIVERSE_GUARDED_BY(x) DIVERSE_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is guarded by the capability.
#define DIVERSE_PT_GUARDED_BY(x) DIVERSE_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the capability held on entry (and does not release it).
#define DIVERSE_REQUIRES(...) \
  DIVERSE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the capability (must not be held on entry).
#define DIVERSE_ACQUIRE(...) \
  DIVERSE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function attempts acquisition; holds it iff the return value equals the
/// first macro argument.
#define DIVERSE_TRY_ACQUIRE(...) \
  DIVERSE_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Function releases the capability (must be held on entry).
#define DIVERSE_RELEASE(...) \
  DIVERSE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function must NOT be called with the capability held (deadlock guard for
/// non-reentrant entry points).
#define DIVERSE_EXCLUDES(...) \
  DIVERSE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define DIVERSE_RETURN_CAPABILITY(x) \
  DIVERSE_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: body not analyzed. Every use carries a same-line
/// justification comment (checked by tools/lint.py).
#define DIVERSE_NO_THREAD_SAFETY_ANALYSIS \
  DIVERSE_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace diverse {

/// std::mutex annotated as a capability so the analysis can track it.
/// Same size and cost as std::mutex; the annotations vanish under g++.
class DIVERSE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() DIVERSE_ACQUIRE() { mu_.lock(); }
  void Unlock() DIVERSE_RELEASE() { mu_.unlock(); }
  bool TryLock() DIVERSE_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Scoped lock with explicit Unlock/Lock for the unlock-work-relock pattern
/// (worker loops that drop the lock around user code). The destructor
/// releases only if currently held; the analysis tracks the manual
/// transitions.
class DIVERSE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) DIVERSE_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_->Lock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Temporarily releases the mutex (e.g. to run user code).
  void Unlock() DIVERSE_RELEASE() {
    held_ = false;
    mu_->Unlock();
  }

  /// Re-acquires after Unlock().
  void Lock() DIVERSE_ACQUIRE() {
    mu_->Lock();
    held_ = true;
  }

  ~MutexLock() DIVERSE_RELEASE() {
    if (held_) mu_->Unlock();
  }

 private:
  Mutex* mu_;
  bool held_;
};

/// std::condition_variable over Mutex. Waits REQUIRE the mutex so an
/// unlocked wait is a compile error under the analysis. No predicate
/// overloads on purpose: the analysis cannot see into a predicate lambda,
/// so waits are written as explicit `while (!cond) cv.Wait(mu);` loops with
/// the condition evaluated in the locked scope.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) DIVERSE_REQUIRES(mu) {
    // Adopt the already-held native mutex so the native condvar (no
    // condition_variable_any overhead) can unlock/relock it, then release
    // the adoption bookkeeping — ownership stays with the caller's scope.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  template <typename Clock, typename Duration>
  void WaitUntil(Mutex& mu,
                 const std::chrono::time_point<Clock, Duration>& deadline)
      DIVERSE_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait_until(native, deadline);
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace diverse

#endif  // DIVERSE_UTIL_THREAD_ANNOTATIONS_H_
