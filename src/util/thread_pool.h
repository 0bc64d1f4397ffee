// Fixed-size thread pool used by the MapReduce simulator to execute reducer
// tasks in parallel, and by benches to parallelize independent runs.

#ifndef DIVERSE_UTIL_THREAD_POOL_H_
#define DIVERSE_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/status.h"
#include "util/thread_annotations.h"

namespace diverse {

/// A minimal work-queue thread pool.
///
/// Tasks are `std::function<void()>`; exceptions must not escape tasks (the
/// library is exception-free). Destruction waits for all submitted tasks to
/// finish.
///
/// Locking contract (statically checked under -Wthread-safety): `mu_`
/// guards the task queue, the in-flight count, and the arena descriptor;
/// `arena_call_mu_` is a serialization token admitting one range-loop owner
/// at a time; `arena_next_` is the only lock-free shared cursor. Entry
/// points are non-reentrant on `mu_` (DIVERSE_EXCLUDES) — nested loops from
/// worker threads, and loops under a ScopedInlineParallelLoops, run inline
/// before any lock is touched.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Enqueues a task for execution.
  void Submit(std::function<void()> task) DIVERSE_EXCLUDES(mu_);

  /// Blocks until every submitted task has completed.
  void Wait() DIVERSE_EXCLUDES(mu_);

  /// Number of worker threads.
  size_t num_threads() const { return workers_.size(); }

  /// Convenience: runs `fn(i)` for i in [0, n) across the pool and waits.
  /// `fn` must be safe to invoke concurrently for distinct indices.
  /// Completion is tracked per call, so concurrent ParallelFor calls from
  /// different threads (e.g. batched kernels running inside MapReduce
  /// reducers) do not wait on each other's tasks.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn)
      DIVERSE_EXCLUDES(mu_);

  /// ParallelFor with mid-round abort: `fn(i)` returning false poisons the
  /// round — no further indices are claimed (invocations already running
  /// finish normally) and the call returns false; true when every index ran
  /// and succeeded. The barrier always waits for every *started* invocation,
  /// so state captured by `fn` stays valid, and a poisoned round never
  /// leaves waiters blocked: the loop tasks all observe the poison flag on
  /// their next claim and drain. Which indices are skipped after a failure
  /// is scheduling-dependent; callers needing determinism must treat a
  /// false return as "retry or abort the whole round" (as the MapReduce
  /// executor does), never as a partial result — which is why discarding
  /// the verdict is a compile error.
  DIVERSE_MUST_USE bool ParallelForFallible(
      size_t n, const std::function<bool(size_t)>& fn) DIVERSE_EXCLUDES(mu_);

  /// Runs `fn(begin, end)` over disjoint ranges covering [0, n), each of
  /// roughly `grain` indices, across the pool, and waits. Runs inline on the
  /// calling thread when the work is too small to amortize dispatch
  /// (n <= grain), the pool has a single worker, the caller *is* a worker
  /// of this pool (nested same-pool loops would otherwise block a worker on
  /// work only workers can run), or a ScopedInlineParallelLoops is active.
  /// Range boundaries depend only on (n, grain) — never on scheduling — so
  /// deterministic per-range reductions combine identically at any thread
  /// count.
  ///
  /// Dispatch goes through a persistent task arena: the caller publishes the
  /// loop descriptor, wakes the workers, and claims ranges itself alongside
  /// them from one shared atomic cursor — no per-call task allocation, no
  /// queue churn, and progress is guaranteed even if every worker is busy
  /// (the caller drains the loop alone in the worst case). When another
  /// thread already occupies the arena, the call falls back to the queued
  /// task path.
  void ParallelForRanges(size_t n, size_t grain,
                         const std::function<void(size_t, size_t)>& fn)
      DIVERSE_EXCLUDES(mu_, arena_call_mu_);

 private:
  void WorkerLoop() DIVERSE_EXCLUDES(mu_);
  void ParallelForRangesQueued(size_t n, size_t grain, size_t num_ranges,
                               const std::function<void(size_t, size_t)>& fn)
      DIVERSE_EXCLUDES(mu_);

  /// True when the published range loop still has unclaimed ranges.
  bool ArenaHasWork() const DIVERSE_REQUIRES(mu_) {
    return arena_open_ &&
           arena_next_.load(std::memory_order_relaxed) < arena_num_ranges_;
  }

  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar work_available_;
  CondVar all_done_;
  std::deque<std::function<void()>> queue_ DIVERSE_GUARDED_BY(mu_);
  size_t in_flight_ DIVERSE_GUARDED_BY(mu_) = 0;  // queued + running tasks
  bool shutting_down_ DIVERSE_GUARDED_BY(mu_) = false;

  // Persistent range-loop arena (one loop at a time). The descriptor fields
  // are published under mu_ by the arena owner and read under mu_ by
  // joining workers (which then run on copies); `arena_next_` is the shared
  // range cursor, intentionally lock-free.
  Mutex arena_call_mu_;  // serializes arena owners; guards no data
  const std::function<void(size_t, size_t)>* arena_fn_
      DIVERSE_GUARDED_BY(mu_) = nullptr;
  size_t arena_n_ DIVERSE_GUARDED_BY(mu_) = 0;
  size_t arena_grain_ DIVERSE_GUARDED_BY(mu_) = 0;
  size_t arena_num_ranges_ DIVERSE_GUARDED_BY(mu_) = 0;
  std::atomic<size_t> arena_next_{0};
  size_t arena_workers_inside_ DIVERSE_GUARDED_BY(mu_) = 0;
  bool arena_open_ DIVERSE_GUARDED_BY(mu_) = false;
  CondVar arena_done_;
};

/// While alive, every ParallelFor, ParallelForFallible and ParallelForRanges
/// call made on this thread runs inline, on any pool — the rule a pool's own
/// workers already follow. For callers that already keep every kernel
/// thread busy themselves (a MapReduce round running at least as many
/// reducers at once as GlobalThreadPool() has threads): dispatching their
/// loops would only oversubscribe the cores. Parallel loops combine
/// per-range results in ascending order, so the answers do not depend on
/// the marker. An inactive scope leaves the marker as it found it; scopes
/// nest, and each destructor restores the marker its constructor saw.
class ScopedInlineParallelLoops {
 public:
  explicit ScopedInlineParallelLoops(bool active);
  ~ScopedInlineParallelLoops();

  ScopedInlineParallelLoops(const ScopedInlineParallelLoops&) = delete;
  ScopedInlineParallelLoops& operator=(const ScopedInlineParallelLoops&) =
      delete;

 private:
  bool saved_;
};

/// Process-wide pool used by the batched distance kernels (core/metric.h).
/// Lazily created on first use with `DIVERSE_THREADS` workers if that
/// environment variable is set, otherwise std::thread::hardware_concurrency.
/// Distinct from any MapReduce simulator pool, so reducers can issue batched
/// kernels without self-deadlock.
ThreadPool& GlobalThreadPool();

/// Replaces the global pool with one of `num_threads` workers. Intended for
/// benches and tests that compare thread counts; must not race with
/// concurrent GlobalThreadPool() users.
void SetGlobalThreadPoolSize(size_t num_threads);

}  // namespace diverse

#endif  // DIVERSE_UTIL_THREAD_POOL_H_
