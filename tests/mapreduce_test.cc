#include "mapreduce/mapreduce.h"

#include <atomic>
#include <vector>

#include <gtest/gtest.h>

#include "core/metric.h"
#include "data/sparse_text.h"
#include "data/synthetic.h"
#include "mapreduce/afz.h"
#include "mapreduce/executor_clock.h"
#include "mapreduce/fault_injector.h"
#include "mapreduce/mr_diversity.h"
#include "util/status.h"

namespace diverse {
namespace {

TEST(MapReduceSimulatorTest, RunsAllReducers) {
  MapReduceSimulator sim(4);
  std::vector<std::atomic<int>> hits(10);
  sim.RunRound("test", 10, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(sim.num_rounds(), 1u);
}

TEST(MapReduceSimulatorTest, RecordsRoundStats) {
  MapReduceSimulator sim(2);
  sim.RunRoundWithSizes(
      "sized", 3, [](size_t) {},
      [](size_t i) { return 100 * (i + 1); },
      [](size_t i) { return 10 * (i + 1); });
  ASSERT_EQ(sim.rounds().size(), 1u);
  const RoundStats& r = sim.rounds()[0];
  EXPECT_EQ(r.name, "sized");
  EXPECT_EQ(r.num_reducers, 3u);
  EXPECT_EQ(r.MaxInputPoints(), 300u);
  EXPECT_EQ(r.TotalOutputPoints(), 60u);
  EXPECT_GE(r.wall_seconds, 0.0);
}

TEST(MapReduceSimulatorTest, MultipleRoundsAccumulate) {
  MapReduceSimulator sim(2);
  sim.RunRound("r1", 2, [](size_t) {});
  sim.RunRound("r2", 5, [](size_t) {});
  ASSERT_EQ(sim.num_rounds(), 2u);
  EXPECT_EQ(sim.rounds()[0].name, "r1");
  EXPECT_EQ(sim.rounds()[1].name, "r2");
  EXPECT_EQ(sim.rounds()[1].num_reducers, 5u);
}

TEST(MapReduceSimulatorTest, MoreReducersThanWorkers) {
  MapReduceSimulator sim(2);
  std::atomic<int> counter{0};
  sim.RunRound("over", 100, [&counter](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
}

TEST(MapReduceSimulatorTest, WorkerCountExposed) {
  MapReduceSimulator sim(7);
  EXPECT_EQ(sim.num_workers(), 7u);
}

// A fixed reducer fleet larger than the input must run: the partitioner
// hands the tail reducers empty partitions and their core-sets stay empty
// (the former DIVERSE_CHECK_LE(num_parts, n) crash).
TEST(MapReduceDriverTest, MorePartitionsThanPointsRunsEmptyReducers) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(5, 2, /*seed=*/1);
  MrOptions o;
  o.k = 3;
  o.k_prime = 4;
  o.num_partitions = 8;
  o.num_workers = 4;
  MapReduceDiversity driver(&m, DiversityProblem::kRemoteEdge, o);
  StatusOr<MrResult> r = driver.TryRun(Dataset(pts));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->solution.size(), 3u);
  EXPECT_GT(r->diversity, 0.0);
}

TEST(MapReduceDriverTest, GeneralizedMorePartitionsThanPoints) {
  CosineMetric m;
  SparseTextOptions sopts;
  sopts.n = 6;
  sopts.vocab_size = 100;
  sopts.min_terms = 3;
  sopts.max_terms = 20;
  sopts.seed = 2;
  PointSet docs = GenerateSparseTextDataset(sopts);
  MrOptions o;
  o.k = 3;
  o.k_prime = 5;
  o.num_partitions = 10;
  o.num_workers = 3;
  MapReduceDiversity driver(&m, DiversityProblem::kRemoteClique, o);
  StatusOr<MrResult> r = driver.TryRunGeneralized(Dataset(docs));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->solution.size(), 3u);
  EXPECT_GE(r->diversity, 0.0);
}

TEST(MapReduceDriverTest, AdversarialPartitionMorePartsThanSparsePoints) {
  // Adversarial partitioning of sparse points reads a pivot; with more
  // parts than points the pivot guard and the empty tails must both hold.
  CosineMetric m;
  SparseTextOptions sopts;
  sopts.n = 3;
  sopts.vocab_size = 50;
  sopts.min_terms = 3;
  sopts.max_terms = 15;
  sopts.seed = 3;
  PointSet docs = GenerateSparseTextDataset(sopts);
  MrOptions o;
  o.k = 2;
  o.k_prime = 2;
  o.num_partitions = 5;
  o.num_workers = 2;
  o.partition = PartitionStrategy::kAdversarial;
  MapReduceDiversity driver(&m, DiversityProblem::kRemoteEdge, o);
  StatusOr<MrResult> r = driver.TryRun(Dataset(docs));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->solution.size(), 2u);
}

// ---------------------------------------------------------------------------
// Fault-tolerant executor (RunFallibleRound) unit tests. Reducers here are
// synthetic counters, not diversity tasks: the contract under test is the
// executor's — bounded retry, first-commit-wins, speculative duplicates,
// per-round accounting.

TEST(FallibleRoundTest, CleanRoundCommitsEveryTaskOnce) {
  MapReduceSimulator sim(4);
  std::vector<int> committed(8, 0);
  RoundOutcome out = sim.RunFallibleRound(
      "clean", 8,
      [&](const MrTaskContext& ctx, std::function<void()>* commit) -> Status {
        size_t i = ctx.task;
        *commit = [&committed, i] { committed[i]++; };
        return OkStatus();
      },
      FallibleRoundOptions{}, [](size_t) { return 1; },
      [](size_t) { return 1; });
  EXPECT_TRUE(out.ok());
  for (int c : committed) EXPECT_EQ(c, 1);
  const RoundStats& r = sim.rounds().back();
  EXPECT_EQ(r.attempts, 8u);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.timeouts, 0u);
  EXPECT_EQ(r.faults_injected, 0u);
  EXPECT_TRUE(r.failed_tasks.empty());
}

TEST(FallibleRoundTest, TransientFailureIsRetriedUntilSuccess) {
  MapReduceSimulator sim(2);
  std::vector<std::atomic<int>> tries(4);
  std::atomic<int> commits{0};
  FallibleRoundOptions opts;
  opts.max_attempts = 3;
  RoundOutcome out = sim.RunFallibleRound(
      "flaky", 4,
      [&](const MrTaskContext& ctx, std::function<void()>* commit) -> Status {
        tries[ctx.task].fetch_add(1);
        // Task 2 fails its first two attempts, succeeds on the third.
        if (ctx.task == 2 && ctx.attempt < 2) {
          return UnavailableError("transient");
        }
        *commit = [&commits] { commits.fetch_add(1); };
        return OkStatus();
      },
      opts, [](size_t) { return 1; }, [](size_t) { return 1; });
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(commits.load(), 4);
  EXPECT_EQ(tries[2].load(), 3);
  const RoundStats& r = sim.rounds().back();
  EXPECT_EQ(r.attempts, 6u);
  EXPECT_EQ(r.retries, 2u);
}

TEST(FallibleRoundTest, ExhaustedBudgetReportsFailedTasksAscending) {
  MapReduceSimulator sim(4);
  FallibleRoundOptions opts;
  opts.max_attempts = 2;
  RoundOutcome out = sim.RunFallibleRound(
      "doomed", 6,
      [&](const MrTaskContext& ctx, std::function<void()>* commit) -> Status {
        if (ctx.task == 5 || ctx.task == 1) {
          return AbortedError("task " + std::to_string(ctx.task) + " dead");
        }
        *commit = [] {};
        return OkStatus();
      },
      opts, [](size_t) { return 1; }, [](size_t) { return 1; });
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.failed_tasks, (std::vector<size_t>{1, 5}));
  EXPECT_FALSE(out.first_error.ok());
  EXPECT_EQ(out.first_error.code(), StatusCode::kAborted);
  const RoundStats& r = sim.rounds().back();
  EXPECT_EQ(r.failed_tasks, (std::vector<size_t>{1, 5}));
  EXPECT_EQ(r.attempts, 8u);  // 4 clean + 2 tasks x 2 attempts
}

TEST(FallibleRoundTest, StragglerTimeoutLaunchesSpeculativeDuplicate) {
  MapReduceSimulator sim(4);
  FaultInjector faults;
  faults.Add({"slow", 0, 0, FaultKind::kStraggler, /*delay_ms=*/300});
  FallibleRoundOptions opts;
  opts.task_timeout_ms = 30;
  opts.faults = &faults;
  std::atomic<int> commits{0};
  RoundOutcome out = sim.RunFallibleRound(
      "slow", 2,
      [&](const MrTaskContext& ctx, std::function<void()>* commit) -> Status {
        *commit = [&commits] { commits.fetch_add(1); };
        return OkStatus();
      },
      opts, [](size_t) { return 1; }, [](size_t) { return 1; });
  EXPECT_TRUE(out.ok());
  // First-commit-wins: the straggler's late commit must have been dropped.
  EXPECT_EQ(commits.load(), 2);
  const RoundStats& r = sim.rounds().back();
  EXPECT_GE(r.timeouts, 1u);
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_EQ(r.attempts, 2u + r.retries);
}

TEST(FallibleRoundTest, CrashFaultNeverRunsTheTaskBody) {
  MapReduceSimulator sim(2);
  FaultInjector faults;
  faults.Add({"crashy", 1, 0, FaultKind::kCrash, 0});
  FallibleRoundOptions opts;
  opts.faults = &faults;
  std::vector<std::atomic<int>> body_runs(2);
  RoundOutcome out = sim.RunFallibleRound(
      "crashy", 2,
      [&](const MrTaskContext& ctx, std::function<void()>* commit) -> Status {
        body_runs[ctx.task].fetch_add(1);
        EXPECT_EQ(ctx.fault, FaultKind::kNone);  // crash handled upstream
        *commit = [] {};
        return OkStatus();
      },
      opts, [](size_t) { return 1; }, [](size_t) { return 1; });
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(body_runs[0].load(), 1);
  EXPECT_EQ(body_runs[1].load(), 1);  // only the retry ran the body
  const RoundStats& r = sim.rounds().back();
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_EQ(r.faults_injected, 1u);
}

TEST(FallibleRoundTest, DataFaultsReachTheTaskContext) {
  MapReduceSimulator sim(2);
  FaultInjector faults;
  faults.Add({"ctx", 0, 0, FaultKind::kWrongOutput, /*param=*/42});
  FallibleRoundOptions opts;
  opts.faults = &faults;
  std::atomic<int> faulted_seen{0};
  RoundOutcome out = sim.RunFallibleRound(
      "ctx", 1,
      [&](const MrTaskContext& ctx, std::function<void()>* commit) -> Status {
        if (ctx.attempt == 0) {
          EXPECT_EQ(ctx.fault, FaultKind::kWrongOutput);
          EXPECT_EQ(ctx.fault_param, 42u);
          faulted_seen.fetch_add(1);
          return DataLossError("garbled as instructed");
        }
        EXPECT_EQ(ctx.fault, FaultKind::kNone);
        *commit = [] {};
        return OkStatus();
      },
      opts, [](size_t) { return 1; }, [](size_t) { return 1; });
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(faulted_seen.load(), 1);
}

// ---------------------------------------------------------------------------
// Injectable clock: straggler deadlines fire on fake time, so the
// speculative-relaunch branch is exercised deterministically — no
// sleep-calibrated real delay that can flake on a loaded machine.

TEST(FallibleRoundTest, ManualClockFiresStragglerDeterministically) {
  MapReduceSimulator sim(4);
  FaultInjector faults;
  // The injected delay (real sleep) dwarfs the timeout; under the manual
  // clock the deadline fires on the driver's FIRST wait regardless of how
  // fast or slow the machine actually is.
  faults.Add({"slow", 0, 0, FaultKind::kStraggler, /*delay_ms=*/200});
  ManualExecutorClock clock;
  FallibleRoundOptions opts;
  opts.task_timeout_ms = 30;
  opts.faults = &faults;
  opts.clock = &clock;
  std::atomic<int> commits{0};
  RoundOutcome out = sim.RunFallibleRound(
      "slow", 2,
      [&](const MrTaskContext&, std::function<void()>* commit) -> Status {
        *commit = [&commits] { commits.fetch_add(1); };
        return OkStatus();
      },
      opts, [](size_t) { return 1; }, [](size_t) { return 1; });
  EXPECT_TRUE(out.ok());
  // First-commit-wins: exactly one commit per task, and the timeout branch
  // provably ran — on fake time, not after a real 30ms elapsed. (Every
  // attempt still in flight at a wait is eligible for duplication, so the
  // exact attempt count depends on thread scheduling; the guarantee is
  // that the straggler was raced and the round still converged.)
  EXPECT_EQ(commits.load(), 2);
  const RoundStats& r = sim.rounds().back();
  EXPECT_GE(r.timeouts, 1u);
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_GE(r.attempts, 3u);  // 2 tasks + at least the straggler's duplicate
}

TEST(FallibleRoundTest, ManualClockWithoutTimeoutNeverRelaunches) {
  // With the straggler timeout disabled the clock is never consulted for
  // deadlines: fake time cannot conjure spurious speculative attempts.
  MapReduceSimulator sim(2);
  ManualExecutorClock clock;
  FallibleRoundOptions opts;
  opts.task_timeout_ms = 0;
  opts.clock = &clock;
  RoundOutcome out = sim.RunFallibleRound(
      "fast", 3,
      [](const MrTaskContext&, std::function<void()>* commit) -> Status {
        *commit = [] {};
        return OkStatus();
      },
      opts, [](size_t) { return 1; }, [](size_t) { return 1; });
  EXPECT_TRUE(out.ok());
  const RoundStats& r = sim.rounds().back();
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.timeouts, 0u);
}

TEST(MapReduceDriverTest, InjectedClockDrivesSpeculationEndToEnd) {
  // MrOptions::clock plumbs through the driver: a scripted straggler in
  // round 1 triggers a deterministic speculative re-launch, and the result
  // stays bit-identical to the fault-free run (deterministic reducers).
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(300, 3, /*seed=*/13);
  MrOptions o;
  o.k = 4;
  o.k_prime = 6;
  o.num_partitions = 4;
  o.num_workers = 4;
  MapReduceDiversity clean(&m, DiversityProblem::kRemoteEdge, o);
  StatusOr<MrResult> base = clean.TryRun(Dataset(pts));
  ASSERT_TRUE(base.ok());

  FaultInjector faults;
  faults.Add({"coreset", 2, 0, FaultKind::kStraggler, /*delay_ms=*/150});
  ManualExecutorClock clock;
  MrOptions slow = o;
  slow.faults = &faults;
  slow.clock = &clock;
  slow.task_timeout_ms = 20;
  MapReduceDiversity mr(&m, DiversityProblem::kRemoteEdge, slow);
  StatusOr<MrResult> got = mr.TryRun(Dataset(pts));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GE(got->task_timeouts, 1u);
  EXPECT_EQ(got->faults_injected, 1u);
  ASSERT_EQ(base->solution.size(), got->solution.size());
  for (size_t i = 0; i < base->solution.size(); ++i) {
    EXPECT_TRUE(base->solution[i] == got->solution[i]) << "point " << i;
  }
  EXPECT_EQ(base->diversity, got->diversity);
}

TEST(MapReduceDriverTest, AfzMorePartitionsThanPoints) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(4, 2, /*seed=*/4);
  AfzOptions o;
  o.k = 2;
  o.num_partitions = 6;
  o.num_workers = 2;
  MrResult r = RunAfz(pts, m, DiversityProblem::kRemoteClique, o);
  EXPECT_EQ(r.solution.size(), 2u);
}

}  // namespace
}  // namespace diverse
