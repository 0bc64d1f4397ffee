#include "util/thread_pool.h"

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace diverse {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForCoversAllIndicesOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForWithZeroItems) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForWithFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  pool.ParallelFor(3, [&counter](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPoolTest, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.ParallelFor(50, [&counter](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    pool.ParallelFor(20, [&counter](size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForRangesCoversAllRanges) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.ParallelForRanges(hits.size(), 64, [&hits](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Two external threads racing ParallelForRanges on one pool: the first
// takes the arena, the second must fall back to the queued path — both
// loops must still cover every index exactly once.
TEST(ThreadPoolTest, ConcurrentParallelForRangesCallers) {
  ThreadPool pool(4);
  constexpr size_t kCallers = 6;
  constexpr size_t kN = 20000;
  std::vector<std::vector<int>> hits(kCallers, std::vector<int>(kN, 0));
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &hits, c] {
      for (int round = 0; round < 5; ++round) {
        pool.ParallelForRanges(kN, 64, [&hits, c](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) ++hits[c][i];
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (size_t c = 0; c < kCallers; ++c) {
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[c][i], 5) << "caller " << c << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForFallibleCleanRoundRunsEveryIndex) {
  ThreadPool pool(4);
  constexpr size_t kN = 5000;
  std::vector<std::atomic<int>> hits(kN);
  bool ok = pool.ParallelForFallible(kN, [&hits](size_t i) {
    hits[i].fetch_add(1);
    return true;
  });
  EXPECT_TRUE(ok);
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

// A failing index poisons the round: ParallelForFallible returns false, no
// index runs twice, and the barrier still waits for every started
// invocation (no body running after the call returns).
TEST(ThreadPoolTest, ParallelForFalliblePoisonedRoundStopsEarly) {
  ThreadPool pool(4);
  constexpr size_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<size_t> started{0};
  bool ok = pool.ParallelForFallible(kN, [&hits, &started](size_t i) {
    started.fetch_add(1);
    hits[i].fetch_add(1);
    return i != 17;  // poison on one early index
  });
  EXPECT_FALSE(ok);
  size_t after_return = started.load();
  // The poison flag is checked at every claim, so the round stops well
  // short of the full range (17 runs early; even with 4 threads racing the
  // flag only a bounded overshoot is possible).
  EXPECT_LT(after_return, kN);
  for (size_t i = 0; i < kN; ++i) ASSERT_LE(hits[i].load(), 1) << i;
  // Barrier: nothing is still running.
  EXPECT_EQ(started.load(), after_return);
}

TEST(ThreadPoolTest, ParallelForFallibleNestedInsideWorkerRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> inner_hits{0};
  std::atomic<int> inner_failures{0};
  pool.ParallelFor(4, [&pool, &inner_hits, &inner_failures](size_t outer) {
    // Nested call on a worker thread must run inline (no deadlock) and
    // still report poisoning.
    bool ok = pool.ParallelForFallible(8, [&inner_hits, outer](size_t i) {
      inner_hits.fetch_add(1);
      return !(outer == 1 && i == 3);
    });
    if (!ok) inner_failures.fetch_add(1);
  });
  EXPECT_EQ(inner_failures.load(), 1);
  // Outer 1 stops at index 3 (inline path stops at first failure); the
  // other three outers run all 8.
  EXPECT_EQ(inner_hits.load(), 3 * 8 + 4);
}

// How many invocations of a 16-index ParallelFor ran off the calling thread.
int ParallelForCallsOffCaller(ThreadPool& pool) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off{0};
  pool.ParallelFor(16, [&](size_t) {
    if (std::this_thread::get_id() != caller) off.fetch_add(1);
  });
  return off.load();
}

// How many ranges a ParallelForRanges of 64 indices at grain 4 ran as.
int RangeCalls(ThreadPool& pool) {
  std::atomic<int> calls{0};
  pool.ParallelForRanges(64, 4, [&](size_t, size_t) { calls.fetch_add(1); });
  return calls.load();
}

TEST(ThreadPoolTest, LoopsUnderInlineScopeRunOnTheCallingThread) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  ScopedInlineParallelLoops inline_loops(true);
  EXPECT_EQ(ParallelForCallsOffCaller(pool), 0);
  std::atomic<int> fallible_off{0};
  EXPECT_TRUE(pool.ParallelForFallible(16, [&](size_t) {
    if (std::this_thread::get_id() != caller) fallible_off.fetch_add(1);
    return true;
  }));
  EXPECT_EQ(fallible_off.load(), 0);
  std::vector<std::pair<size_t, size_t>> ranges;
  pool.ParallelForRanges(64, 4, [&](size_t lo, size_t hi) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ranges.emplace_back(lo, hi);
  });
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], std::make_pair(size_t{0}, size_t{64}));
  // The inline path still stops at the first failure.
  int hits = 0;
  EXPECT_FALSE(pool.ParallelForFallible(16, [&hits](size_t i) {
    ++hits;
    return i != 5;
  }));
  EXPECT_EQ(hits, 6);
}

TEST(ThreadPoolTest, InlineScopesNestAndRestoreTheMarker) {
  ThreadPool pool(4);
  // ParallelFor never runs an index on the caller when it dispatches.
  EXPECT_EQ(ParallelForCallsOffCaller(pool), 16);
  EXPECT_EQ(RangeCalls(pool), 16);
  {
    ScopedInlineParallelLoops inactive(false);
    EXPECT_EQ(ParallelForCallsOffCaller(pool), 16);
  }
  {
    ScopedInlineParallelLoops outer(true);
    EXPECT_EQ(ParallelForCallsOffCaller(pool), 0);
    {
      ScopedInlineParallelLoops inner_inactive(false);
      EXPECT_EQ(ParallelForCallsOffCaller(pool), 0);
      {
        ScopedInlineParallelLoops inner(true);
        EXPECT_EQ(RangeCalls(pool), 1);
      }
      EXPECT_EQ(RangeCalls(pool), 1);
    }
    EXPECT_EQ(ParallelForCallsOffCaller(pool), 0);
  }
  EXPECT_EQ(ParallelForCallsOffCaller(pool), 16);
  EXPECT_EQ(RangeCalls(pool), 16);
  // The marker is per thread: another thread dispatches meanwhile.
  ScopedInlineParallelLoops here(true);
  int other_thread_off = 0;
  std::thread other(
      [&] { other_thread_off = ParallelForCallsOffCaller(pool); });
  other.join();
  EXPECT_EQ(other_thread_off, 16);
}

TEST(ThreadPoolTest, DestructionWaitsForTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor joins
  EXPECT_EQ(counter.load(), 10);
}

}  // namespace
}  // namespace diverse
