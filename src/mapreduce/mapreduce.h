// A small in-process MapReduce simulator with a fault-tolerant executor.
//
// The paper's MR model (Karloff et al. / Pietracaprina et al.): a round
// applies a reducer function independently to each part of a partitioned
// multiset, under a local memory budget M_L per reducer and a total budget
// M_T. We replace the distributed transport of Spark with a thread pool and
// keep everything else observable: per-round wall time, per-reducer input /
// output sizes, and the maximum local memory actually touched, so benches
// can report the quantities Theorems 6-10 bound.
//
// Every round is fault-aware (RunFallibleRound): reducer attempts return
// Status instead of aborting, failed attempts are retried with a bounded
// budget, wall-clock stragglers are speculatively re-launched, and a
// deterministic FaultInjector can script every failure mode so recovery
// paths are reproducible unit tests.
// This executor is the substrate a real multi-process transport plugs into:
// its failure semantics (deterministic re-execution, first-commit-wins,
// bounded retries, per-round accounting) are transport-independent.

#ifndef DIVERSE_MAPREDUCE_MAPREDUCE_H_
#define DIVERSE_MAPREDUCE_MAPREDUCE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mapreduce/executor_clock.h"
#include "mapreduce/fault_injector.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace diverse {

/// Observability record for one simulated round.
struct RoundStats {
  std::string name;
  size_t num_reducers = 0;
  double wall_seconds = 0.0;
  /// Per-reducer input sizes in points, as reported by the driver.
  std::vector<size_t> input_points;
  /// Per-reducer output sizes in points, as reported by the driver.
  std::vector<size_t> output_points;

  // Fault-tolerance accounting.
  /// Task attempts launched (== num_reducers when nothing went wrong).
  size_t attempts = 0;
  /// Attempts beyond the first per task (failure retries + speculative
  /// re-launches).
  size_t retries = 0;
  /// Speculative re-launches triggered by the straggler timeout.
  size_t timeouts = 0;
  /// Probes for which the FaultInjector fired a non-kNone fault.
  size_t faults_injected = 0;
  /// Tasks that exhausted their attempt budget, in ascending order.
  std::vector<size_t> failed_tasks;

  /// Largest reducer input — the M_L this round actually required.
  size_t MaxInputPoints() const;
  /// Sum of reducer outputs — the shuffle volume to the next round.
  size_t TotalOutputPoints() const;
};

/// Per-attempt context handed to a fallible reducer.
struct MrTaskContext {
  /// Task (reducer) index in [0, num_tasks).
  size_t task = 0;
  /// Attempt number, 0 for the first execution.
  size_t attempt = 0;
  /// Injected fault this attempt must apply to itself: a data fault
  /// (kEmptyOutput, kWrongOutput, kCorruptPartition) the reducer body
  /// simulates, or a transport fault (IsTransportFault) the reducer
  /// forwards to its CommunicationEngine call. Crash and straggler faults
  /// are handled by the executor and never reach the task.
  FaultKind fault = FaultKind::kNone;
  /// Sub-seed for deterministic corruption (data faults) or delay in ms
  /// (kReplyDelay).
  uint64_t fault_param = 0;
};

/// A fallible reducer attempt. Computes the task's output for `ctx` and, on
/// success, fills `*commit` with a closure that publishes the output into
/// the driver's result slot. The executor invokes at most one commit per
/// task (the first successful attempt wins; a speculative duplicate's
/// commit is dropped), serialized under the round lock — so attempts never
/// race on driver state even when a straggler and its speculative copy run
/// concurrently. Attempts must be deterministic: same (task, fault-free
/// input) => identical output, which is what makes retried and speculative
/// runs interchangeable.
using FallibleReducer =
    std::function<Status(const MrTaskContext& ctx, std::function<void()>* commit)>;

/// Execution policy of one fallible round.
struct FallibleRoundOptions {
  /// Total attempts per task (first run + retries). At least 1.
  size_t max_attempts = 3;
  /// Wall-clock budget per attempt in ms; an attempt still running past it
  /// triggers a speculative re-launch (if budget remains). 0 disables.
  uint64_t task_timeout_ms = 0;
  /// Fault schedule consulted per (round, task, attempt); null = fault-free.
  const FaultInjector* faults = nullptr;
  /// Time source for launch stamps and straggler deadlines. Null = the wall
  /// clock (RealExecutorClock). Tests inject a ManualExecutorClock to make
  /// timeout/speculative-relaunch behavior deterministic.
  ExecutorClock* clock = nullptr;
};

/// How a fallible round ended. nodiscard: a dropped outcome silently turns
/// permanently-failed tasks into missing results — the caller must either
/// degrade explicitly or abort.
struct [[nodiscard]] RoundOutcome {
  /// Tasks that exhausted their attempt budget, ascending.
  std::vector<size_t> failed_tasks;
  /// The last error of the first failed task; OK when none failed.
  Status first_error;

  bool ok() const { return failed_tasks.empty(); }
};

/// Most processors a MapReduceSimulator models. It starts one thread per
/// processor, so the drivers reject a larger num_workers before any thread
/// starts (ValidateNumWorkers) instead of dying when the system refuses the
/// threads; TrySolve's auto rule caps num_workers here.
inline constexpr size_t kMaxMapReduceWorkers = 256;

/// kInvalidArgument unless 1 <= num_workers <= kMaxMapReduceWorkers.
Status ValidateNumWorkers(size_t num_workers);

/// Executes rounds of reducer tasks on a fixed worker pool and accumulates
/// RoundStats. `num_workers` models the number of physical processors (the
/// "parallelism" axis of Figures 4 and 5); the number of reducers per round
/// is chosen by the caller and may exceed it, in which case reducers queue,
/// exactly like Spark tasks on a smaller cluster.
class MapReduceSimulator {
 public:
  explicit MapReduceSimulator(size_t num_workers);

  /// Fault-tolerant round: every task is attempted up to
  /// `opts.max_attempts` times (failed attempts re-execute from the same
  /// input — deterministic reducers make re-runs bit-identical), attempts
  /// running past `opts.task_timeout_ms` get a speculative duplicate, and
  /// the injector (if any) is consulted per attempt. Returns the tasks that
  /// permanently failed; the caller decides whether to degrade (drop their
  /// output) or abort. Blocks until every launched attempt has finished —
  /// losers of speculative races included — so driver state captured by the
  /// reducer closures may be stack-local to the caller.
  DIVERSE_MUST_USE RoundOutcome RunFallibleRound(
      const std::string& name, size_t num_tasks, const FallibleReducer& task,
      const FallibleRoundOptions& opts,
      const std::function<size_t(size_t)>& input_points_of,
      const std::function<size_t(size_t)>& output_points_of);

  /// Stats of every round run so far, in order.
  const std::vector<RoundStats>& rounds() const { return rounds_; }

  /// Number of rounds executed.
  size_t num_rounds() const { return rounds_.size(); }

  size_t num_workers() const { return pool_.num_threads(); }

 private:
  ThreadPool pool_;
  std::vector<RoundStats> rounds_;
};

}  // namespace diverse

#endif  // DIVERSE_MAPREDUCE_MAPREDUCE_H_
