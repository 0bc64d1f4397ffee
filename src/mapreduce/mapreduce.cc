#include "mapreduce/mapreduce.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>

#include "util/thread_annotations.h"

#include "util/check.h"
#include "util/timer.h"

namespace diverse {

size_t RoundStats::MaxInputPoints() const {
  size_t m = 0;
  for (size_t s : input_points) m = std::max(m, s);
  return m;
}

size_t RoundStats::TotalOutputPoints() const {
  return std::accumulate(output_points.begin(), output_points.end(),
                         size_t{0});
}

Status ValidateNumWorkers(size_t num_workers) {
  if (num_workers == 0 || num_workers > kMaxMapReduceWorkers) {
    return InvalidArgumentError(
        "num_workers (" + std::to_string(num_workers) +
        ") must be between 1 and " + std::to_string(kMaxMapReduceWorkers));
  }
  return OkStatus();
}

MapReduceSimulator::MapReduceSimulator(size_t num_workers)
    : pool_(num_workers) {}

namespace {

// Per-task scheduling state of one fallible round. Guarded by the round
// mutex (FallibleRound::mu) through the owning vector.
struct FallibleTaskState {
  size_t attempts_started = 0;
  size_t attempts_in_flight = 0;
  bool done = false;    // a successful attempt committed
  bool failed = false;  // budget exhausted, nothing in flight
  ExecutorClock::TimePoint last_launch{};
  Status last_error;
};

// The shared state of one fallible round, annotated so -Wthread-safety
// proves the commit discipline: every mutation of the scheduling state and
// every driver-commit closure runs under `mu` (first-commit-wins), and the
// executor loop cannot read a counter without the lock. Lives on
// RunFallibleRound's stack; Launch()ed attempts capture a pointer, which
// stays valid because the round does not return until `in_flight` drains.
struct FallibleRound {
  FallibleRound(const std::string& name, const FallibleReducer& body,
                const FallibleRoundOptions& opts, ThreadPool& pool,
                size_t num_tasks)
      : name(name), body(body), opts(opts), pool(pool),
        clock(opts.clock != nullptr ? opts.clock : RealExecutorClock()),
        inline_kernels(std::min(num_tasks, pool.num_threads()) >=
                       GlobalThreadPool().num_threads()),
        tasks(num_tasks), unresolved(num_tasks) {}

  // Immutable during the round.
  const std::string& name;
  const FallibleReducer& body;
  const FallibleRoundOptions& opts;
  ThreadPool& pool;
  ExecutorClock* const clock;
  // Whether the round's reducers alone occupy every kernel thread: then
  // each attempt runs its kernel loops inline (ScopedInlineParallelLoops)
  // instead of queueing them on the shared GlobalThreadPool(), where they
  // would only oversubscribe the cores. A round of fewer concurrent tasks
  // (round 2's single reducer) keeps the pool.
  const bool inline_kernels;

  Mutex mu;
  CondVar cv;
  std::vector<FallibleTaskState> tasks DIVERSE_GUARDED_BY(mu);
  size_t unresolved DIVERSE_GUARDED_BY(mu);   // tasks neither done nor failed
  size_t in_flight DIVERSE_GUARDED_BY(mu) = 0;  // launched, not reported
  RoundStats stats DIVERSE_GUARDED_BY(mu);      // attempt/retry accounting

  // Launches the next attempt of task i on the worker pool.
  void Launch(size_t i, bool speculative) DIVERSE_REQUIRES(mu);
  // An attempt finished: commit, retry, or fail under the round lock.
  void OnAttemptDone(size_t i, const Status& status,
                     const std::function<void()>& commit) DIVERSE_EXCLUDES(mu);
};

void FallibleRound::Launch(size_t i, bool speculative) {
  FallibleTaskState& ts = tasks[i];
  const size_t attempt = ts.attempts_started++;
  ++ts.attempts_in_flight;
  ts.last_launch = clock->Now();
  ++stats.attempts;
  if (attempt > 0) ++stats.retries;
  if (speculative) ++stats.timeouts;
  InjectedFault fault;
  if (opts.faults != nullptr) {
    fault = opts.faults->Probe(name, i, attempt);
    if (fault.kind != FaultKind::kNone) ++stats.faults_injected;
  }
  ++in_flight;
  pool.Submit([this, i, attempt, fault] {
    Status status;
    std::function<void()> commit;
    if (fault.kind == FaultKind::kCrash) {
      // The reducer dies before doing any work: no task body, no output.
      status = AbortedError("injected crash (round '" + name + "', task " +
                            std::to_string(i) + ", attempt " +
                            std::to_string(attempt) + ")");
    } else {
      if (fault.kind == FaultKind::kStraggler) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(fault.param == 0 ? 50 : fault.param));
      }
      MrTaskContext ctx;
      ctx.task = i;
      ctx.attempt = attempt;
      if (fault.kind == FaultKind::kEmptyOutput ||
          fault.kind == FaultKind::kWrongOutput ||
          fault.kind == FaultKind::kCorruptPartition ||
          IsTransportFault(fault.kind)) {
        ctx.fault = fault.kind;
        ctx.fault_param = fault.param;
      }
      ScopedInlineParallelLoops inline_loops(inline_kernels);
      status = body(ctx, &commit);
    }
    OnAttemptDone(i, status, commit);
  });
}

void FallibleRound::OnAttemptDone(size_t i, const Status& status,
                                  const std::function<void()>& commit) {
  MutexLock lock(&mu);
  --in_flight;
  FallibleTaskState& ts = tasks[i];
  --ts.attempts_in_flight;
  if (!ts.done && !ts.failed) {
    if (status.ok()) {
      // First successful attempt wins; the commit runs under the round
      // lock so a concurrent speculative duplicate can never interleave
      // with it on the driver's output slot.
      ts.done = true;
      --unresolved;
      if (commit) commit();
    } else {
      ts.last_error = status;
      if (ts.attempts_started < opts.max_attempts) {
        Launch(i, /*speculative=*/false);
      } else if (ts.attempts_in_flight == 0) {
        // Budget spent and no speculative copy still racing: the task
        // is permanently failed.
        ts.failed = true;
        --unresolved;
      }
      // else: a duplicate attempt is still running and may yet succeed.
    }
  }
  // Notify while still holding the round lock: the instant this thread
  // releases `mu` with in_flight drained, the driver may observe the exit
  // predicate and destroy the whole FallibleRound (it lives on the
  // driver's stack), so an after-unlock notify would touch a dead CondVar
  // — a use-after-free that can silently corrupt the *next* round's wait
  // state. Under the lock, no waiter can return from Wait (and free the
  // round) before this notify completes.
  cv.NotifyAll();
}

}  // namespace

RoundOutcome MapReduceSimulator::RunFallibleRound(
    const std::string& name, size_t num_tasks, const FallibleReducer& task,
    const FallibleRoundOptions& opts,
    const std::function<size_t(size_t)>& input_points_of,
    const std::function<size_t(size_t)>& output_points_of) {
  DIVERSE_CHECK_GE(opts.max_attempts, 1u);
  Timer timer;
  RoundOutcome outcome;
  RoundStats stats;

  // The round state lives on this stack frame; the loop below does not
  // return until every launched attempt has reported back (losers of
  // speculative races included), so pointers captured by the attempt
  // closures stay valid and the next round can safely reuse or destroy
  // driver buffers.
  FallibleRound round(name, task, opts, pool_, num_tasks);

  {
    MutexLock lock(&round.mu);
    round.stats.name = name;
    round.stats.num_reducers = num_tasks;
    for (size_t i = 0; i < num_tasks; ++i) {
      round.Launch(i, /*speculative=*/false);
    }
    const auto timeout = std::chrono::milliseconds(opts.task_timeout_ms);
    while (round.unresolved > 0 || round.in_flight > 0) {
      if (opts.task_timeout_ms == 0) {
        round.cv.Wait(round.mu);
        continue;
      }
      // Earliest straggler deadline among running, relaunchable tasks.
      bool have_deadline = false;
      ExecutorClock::TimePoint next_deadline{};
      for (const FallibleTaskState& ts : round.tasks) {
        if (ts.done || ts.failed || ts.attempts_in_flight == 0) continue;
        if (ts.attempts_started >= opts.max_attempts) continue;
        ExecutorClock::TimePoint d = ts.last_launch + timeout;
        if (!have_deadline || d < next_deadline) {
          have_deadline = true;
          next_deadline = d;
        }
      }
      if (!have_deadline) {
        round.cv.Wait(round.mu);
        continue;
      }
      round.clock->WaitUntil(round.cv, round.mu, next_deadline);
      const ExecutorClock::TimePoint now = round.clock->Now();
      for (size_t i = 0; i < num_tasks; ++i) {
        FallibleTaskState& ts = round.tasks[i];
        if (ts.done || ts.failed || ts.attempts_in_flight == 0) continue;
        if (ts.attempts_started >= opts.max_attempts) continue;
        if (now - ts.last_launch >= timeout) {
          // Straggler: leave the slow attempt running (it may still win)
          // and race a speculative duplicate against it.
          round.Launch(i, /*speculative=*/true);
        }
      }
    }
    for (size_t i = 0; i < num_tasks; ++i) {
      if (round.tasks[i].failed) {
        outcome.failed_tasks.push_back(i);
        if (outcome.first_error.ok()) {
          outcome.first_error = round.tasks[i].last_error;
        }
      }
    }
    // Every attempt has drained; move the accounting out while still
    // holding the lock the attempts updated it under.
    stats = std::move(round.stats);
  }

  stats.failed_tasks = outcome.failed_tasks;
  stats.wall_seconds = timer.Seconds();
  stats.input_points.resize(num_tasks);
  stats.output_points.resize(num_tasks);
  for (size_t i = 0; i < num_tasks; ++i) {
    stats.input_points[i] = input_points_of(i);
    stats.output_points[i] = output_points_of(i);
  }
  rounds_.push_back(std::move(stats));
  if (!outcome.failed_tasks.empty() && outcome.first_error.ok()) {
    outcome.first_error = InternalError("task failed without an error");
  }
  return outcome;
}

}  // namespace diverse
