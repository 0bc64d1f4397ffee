#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <utility>

#include "util/check.h"
#include "util/thread_annotations.h"

namespace diverse {

ThreadPool::ThreadPool(size_t num_threads) {
  DIVERSE_CHECK_GE(num_threads, 1u);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    DIVERSE_CHECK(!shutting_down_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(&mu_);
  while (in_flight_ != 0) all_done_.Wait(mu_);
}

namespace {

// Per-call completion state so concurrent parallel loops on one pool only
// wait for their own tasks.
struct LoopState {
  std::atomic<size_t> next{0};
  // Set once before any task is submitted, immutable afterwards.
  size_t num_tasks = 0;
  Mutex mu;
  CondVar finished;
  size_t done DIVERSE_GUARDED_BY(mu) = 0;
};

// The pool a worker thread belongs to (nullptr on external threads). Lets
// nested same-pool parallel loops run inline instead of blocking a worker
// on tasks only workers can execute.
thread_local ThreadPool* tl_worker_pool = nullptr;

// The pool whose arena this thread currently owns, if any. A nested
// same-pool loop from inside the owner's own range body must not touch
// arena_call_mu_ again (non-recursive); it runs inline instead.
thread_local ThreadPool* tl_arena_owner = nullptr;

// Set while a ScopedInlineParallelLoops is active on this thread.
thread_local bool tl_inline_loops = false;

}  // namespace

ScopedInlineParallelLoops::ScopedInlineParallelLoops(bool active)
    : saved_(tl_inline_loops) {
  if (active) tl_inline_loops = true;
}

ScopedInlineParallelLoops::~ScopedInlineParallelLoops() {
  tl_inline_loops = saved_;
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (tl_worker_pool == this || tl_inline_loops) {
    // Nested call from one of this pool's own workers, or the caller keeps
    // the cores busy already: run inline.
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Dynamic scheduling over a shared counter: tasks in this library have
  // uneven cost (reducer partitions of different difficulty), so static
  // striping would leave threads idle.
  auto state = std::make_shared<LoopState>();
  state->num_tasks = std::min(n, num_threads());
  for (size_t t = 0; t < state->num_tasks; ++t) {
    Submit([state, n, &fn] {
      for (size_t i = state->next++; i < n; i = state->next++) fn(i);
      MutexLock lock(&state->mu);
      if (++state->done == state->num_tasks) state->finished.NotifyAll();
    });
  }
  MutexLock lock(&state->mu);
  while (state->done != state->num_tasks) state->finished.Wait(state->mu);
}

bool ThreadPool::ParallelForFallible(size_t n,
                                     const std::function<bool(size_t)>& fn) {
  if (n == 0) return true;
  if (tl_worker_pool == this || tl_inline_loops) {
    // Nested call from one of this pool's own workers, or the caller keeps
    // the cores busy already: run inline, stopping at the first failure.
    for (size_t i = 0; i < n; ++i) {
      if (!fn(i)) return false;
    }
    return true;
  }
  auto state = std::make_shared<LoopState>();
  auto poisoned = std::make_shared<std::atomic<bool>>(false);
  state->num_tasks = std::min(n, num_threads());
  for (size_t t = 0; t < state->num_tasks; ++t) {
    Submit([state, poisoned, n, &fn] {
      // Check the poison flag at every claim: once any invocation fails,
      // the remaining indices are skipped and the loop tasks drain, so the
      // barrier below releases instead of waiting on work that no longer
      // matters.
      while (!poisoned->load(std::memory_order_acquire)) {
        size_t i = state->next++;
        if (i >= n) break;
        if (!fn(i)) poisoned->store(true, std::memory_order_release);
      }
      MutexLock lock(&state->mu);
      if (++state->done == state->num_tasks) state->finished.NotifyAll();
    });
  }
  {
    MutexLock lock(&state->mu);
    while (state->done != state->num_tasks) state->finished.Wait(state->mu);
  }
  return !poisoned->load(std::memory_order_acquire);
}

void ThreadPool::ParallelForRanges(
    size_t n, size_t grain, const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  grain = std::max<size_t>(grain, 1);
  if (n <= grain || num_threads() == 1 || tl_worker_pool == this ||
      tl_arena_owner == this || tl_inline_loops) {
    fn(0, n);
    return;
  }
  size_t num_ranges = (n + grain - 1) / grain;
  if (!arena_call_mu_.TryLock()) {
    // Another thread owns the arena (concurrent loops, e.g. batched kernels
    // issued from several MapReduce reducers): take the queued path.
    ParallelForRangesQueued(n, grain, num_ranges, fn);
    return;
  }
  // Save and restore rather than null on exit: with two ThreadPool
  // instances, a nested loop on pool B from inside pool A's range body must
  // not erase the record that this thread still owns A's arena — the
  // tl_arena_owner == this guard at the top of this function relies on it
  // to run A-nested loops inline instead of re-locking a mutex this thread
  // already holds.
  ThreadPool* prev_arena_owner = tl_arena_owner;
  tl_arena_owner = this;
  // Publish the loop and wake the workers.
  {
    MutexLock lock(&mu_);
    arena_fn_ = &fn;
    arena_n_ = n;
    arena_grain_ = grain;
    arena_num_ranges_ = num_ranges;
    arena_next_.store(0, std::memory_order_relaxed);
    arena_open_ = true;
  }
  work_available_.NotifyAll();
  // The caller claims ranges alongside the workers: progress is guaranteed
  // even if every worker is busy elsewhere.
  for (size_t r = arena_next_.fetch_add(1, std::memory_order_relaxed);
       r < num_ranges;
       r = arena_next_.fetch_add(1, std::memory_order_relaxed)) {
    size_t begin = r * grain;
    fn(begin, std::min(n, begin + grain));
  }
  {
    MutexLock lock(&mu_);
    arena_open_ = false;  // no new entrants
    while (arena_workers_inside_ != 0) arena_done_.Wait(mu_);
    arena_fn_ = nullptr;
  }
  tl_arena_owner = prev_arena_owner;
  arena_call_mu_.Unlock();
}

void ThreadPool::ParallelForRangesQueued(
    size_t n, size_t grain, size_t num_ranges,
    const std::function<void(size_t, size_t)>& fn) {
  auto state = std::make_shared<LoopState>();
  state->num_tasks = std::min(num_ranges, num_threads());
  for (size_t t = 0; t < state->num_tasks; ++t) {
    Submit([state, n, grain, num_ranges, &fn] {
      for (size_t r = state->next++; r < num_ranges; r = state->next++) {
        size_t begin = r * grain;
        fn(begin, std::min(n, begin + grain));
      }
      MutexLock lock(&state->mu);
      if (++state->done == state->num_tasks) state->finished.NotifyAll();
    });
  }
  MutexLock lock(&state->mu);
  while (state->done != state->num_tasks) state->finished.Wait(state->mu);
}

namespace {

size_t DefaultGlobalThreads() {
  // Read once at pool creation, before any worker exists — safe despite
  // getenv's global environ access.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("DIVERSE_THREADS")) {
    long parsed = std::atol(env);
    if (parsed >= 1) return static_cast<size_t>(parsed);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

// The process-wide pool: mutable global state until ROADMAP item 1 (open)
// moves the pool into per-call state.
Mutex g_global_pool_mu;  // lint: allow(no-mutable-globals-in-core) item 1
std::unique_ptr<ThreadPool>  // lint: allow(no-mutable-globals-in-core) item 1
    g_global_pool DIVERSE_GUARDED_BY(g_global_pool_mu);

}  // namespace

ThreadPool& GlobalThreadPool() {
  MutexLock lock(&g_global_pool_mu);
  if (!g_global_pool) {
    g_global_pool = std::make_unique<ThreadPool>(DefaultGlobalThreads());
  }
  return *g_global_pool;
}

void SetGlobalThreadPoolSize(size_t num_threads) {
  MutexLock lock(&g_global_pool_mu);
  g_global_pool = std::make_unique<ThreadPool>(num_threads);
}

void ThreadPool::WorkerLoop() {
  tl_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!(shutting_down_ || !queue_.empty() || ArenaHasWork())) {
        work_available_.Wait(mu_);
      }
      if (ArenaHasWork()) {
        // Join the open range loop: claim ranges from the shared cursor
        // until it is exhausted, then report back to the arena owner.
        ++arena_workers_inside_;
        const std::function<void(size_t, size_t)>* fn = arena_fn_;
        size_t n = arena_n_;
        size_t grain = arena_grain_;
        size_t num_ranges = arena_num_ranges_;
        lock.Unlock();
        for (size_t r = arena_next_.fetch_add(1, std::memory_order_relaxed);
             r < num_ranges;
             r = arena_next_.fetch_add(1, std::memory_order_relaxed)) {
          size_t begin = r * grain;
          (*fn)(begin, std::min(n, begin + grain));
        }
        lock.Lock();
        if (--arena_workers_inside_ == 0) arena_done_.NotifyAll();
        continue;
      }
      if (queue_.empty()) {
        // shutting_down_ and no work left.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      MutexLock lock(&mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

}  // namespace diverse
