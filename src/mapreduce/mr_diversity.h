// MapReduce diversity maximization — the "CPPU" algorithms of the paper.
//
//   * TryRun()            — the 2-round algorithm of Theorem 6: round 1
//                           computes a composable core-set (GMM for
//                           remote-edge/-cycle, GMM-EXT for the other four)
//                           on each partition; round 2 aggregates the
//                           core-sets in one reducer and runs the sequential
//                           alpha-approximation. With the randomized delegate
//                           cap of Theorem 7 enabled, round 1 caps delegates
//                           at Theta(max(log n, k/l)) instead of k-1,
//                           shrinking the aggregate core-set.
//   * TryRunGeneralized() — the 3-round algorithm of Theorem 10
//                           (injective-proxy problems only): round 1
//                           GMM-GEN, round 2 solves the multiset problem on
//                           the merged generalized core-set, round 3
//                           instantiates distinct delegates per partition.
//   * TryRunRecursive()   — the multi-round recursion of Theorem 8: core-sets
//                           of core-sets until the aggregate fits the local
//                           memory budget.
//
// Every driver executes its rounds on the fault-tolerant executor
// (MapReduceSimulator::RunFallibleRound): reducer attempts validate their
// inputs and outputs, failed attempts retry up to MrOptions::max_retries
// times (re-execution from the pristine partition is bit-identical —
// deterministic reducers), and stragglers past MrOptions::task_timeout_ms
// race a speculative duplicate. Permanent failures surface as Status; when
// a round-1 partition exhausts its retries and MrOptions::allow_degraded is
// set, the run completes on the surviving partitions and reports a
// DegradedResult — composability of the core-sets (Theorem 4) means losing
// a partition shrinks the instance the guarantee speaks about rather than
// invalidating it.

#ifndef DIVERSE_MAPREDUCE_MR_DIVERSITY_H_
#define DIVERSE_MAPREDUCE_MR_DIVERSITY_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "comm/comm.h"
#include "core/dataset.h"
#include "core/diversity.h"
#include "core/metric.h"
#include "core/point.h"
#include "mapreduce/fault_injector.h"
#include "mapreduce/mapreduce.h"
#include "mapreduce/partitioner.h"
#include "util/status.h"
#include "util/timer.h"

namespace diverse {

/// Configuration of a MapReduce diversity run.
struct MrOptions {
  /// Solution size.
  size_t k = 8;
  /// Core-set kernel size per partition (k' of the paper); >= k.
  size_t k_prime = 8;
  /// Number of partitions l (== number of round-1 reducers).
  size_t num_partitions = 4;
  /// Number of simulated processors executing reducers, one thread each;
  /// every TryRun* returns kInvalidArgument above kMaxMapReduceWorkers
  /// (mapreduce/mapreduce.h).
  size_t num_workers = 4;
  /// How the input is split.
  PartitionStrategy partition = PartitionStrategy::kRandom;
  /// Seed for partitioning (and nothing else; the algorithms are
  /// deterministic given the partition).
  uint64_t seed = 1;
  /// Theorem 7: cap delegates per cluster at
  /// max(ceil(log2 n), ceil(k / num_partitions)) instead of k-1.
  bool randomized_delegate_cap = false;

  // Fault tolerance (consumed by the fallible executor).
  /// Retries per task beyond the first attempt.
  size_t max_retries = 2;
  /// Straggler wall-clock budget per attempt in ms; an attempt running past
  /// it races a speculative duplicate. 0 disables the timeout.
  uint64_t task_timeout_ms = 0;
  /// When a round-1 (core-set) partition permanently fails: true drops it
  /// and degrades the guarantee (DegradedResult); false fails the run.
  /// Failures of the single-reducer aggregation/solve rounds are always
  /// fatal — there is nothing left to degrade to.
  bool allow_degraded = true;
  /// Deterministic fault schedule; not owned, must outlive the driver.
  /// Null = fault-free execution (the retry machinery still runs, at
  /// bounded overhead — see BM_MrFaultRecovery).
  const FaultInjector* faults = nullptr;

  // Execution backend (the comm/ subsystem).
  /// Where task compute runs. Null = an internal LoopbackEngine on the
  /// driver's metric (the historical in-process simulator, bit-identical).
  /// A SocketEngine here runs every task in a worker process. Not owned;
  /// must outlive the driver's runs.
  CommunicationEngine* engine = nullptr;
  /// Time source for the executor's straggler deadlines. Null = wall clock;
  /// tests inject a ManualExecutorClock for deterministic timeout runs.
  ExecutorClock* clock = nullptr;
};

/// Certificate of a degraded (partition-dropping) completion. The solution
/// is still an approximation — but of the diversity problem on the
/// *surviving* points: the union of surviving core-sets is a composable
/// core-set of the surviving partitions' union (Theorem 4 applied to l'
/// < l partitions), so the usual factor applies to that sub-instance.
/// `surviving_fraction` quantifies what the guarantee no longer covers.
struct DegradedResult {
  /// Round-1 partition (task) ids that exhausted their retry budget. For
  /// the recursive driver these are per-level task ids in failure order.
  std::vector<size_t> failed_partitions;
  /// Input points in surviving / all partitions of the degraded round(s).
  size_t surviving_points = 0;
  size_t total_points = 0;
  /// surviving_points / total_points (for the recursive driver, the product
  /// of per-level survival fractions).
  double surviving_fraction = 1.0;
  /// Certified approximation factor of `solution` relative to the optimum
  /// over the surviving points: the 2x core-set envelope on
  /// SequentialAlpha(problem) that approx_ratio_test asserts against
  /// brute-force enumeration of the surviving sub-instance.
  double approx_factor = 0.0;
};

/// Outcome of a MapReduce run.
struct MrResult {
  /// The k selected points.
  PointSet solution;
  /// div(solution) under the configured objective.
  double diversity = 0.0;
  /// Aggregate core-set size |T| fed to the final sequential step.
  size_t coreset_size = 0;
  /// max over reducers and rounds of the points a reducer held (the
  /// observed M_L).
  size_t max_local_memory_points = 0;
  /// Number of MR rounds executed.
  size_t rounds = 0;
  /// Wall time of each round, seconds.
  std::vector<double> round_seconds;
  /// Points shuffled between rounds (sum over all rounds of the reducers'
  /// output sizes) — the communication volume a real cluster would pay.
  size_t shuffle_points = 0;
  /// Total wall time, seconds.
  double total_seconds = 0.0;

  // Fault-tolerance accounting, summed over rounds.
  /// Task attempts launched (== reducer count when nothing went wrong).
  size_t task_attempts = 0;
  /// Attempts beyond the first per task.
  size_t task_retries = 0;
  /// Speculative re-launches triggered by the straggler timeout.
  size_t task_timeouts = 0;
  /// Fault-injector probes that fired.
  size_t faults_injected = 0;
  /// Present iff the run completed by dropping permanently-failed
  /// partitions.
  std::optional<DegradedResult> degraded;
};

/// Copies round count, per-round wall times, max reducer input (M_L), total
/// shuffle volume and the fault-tolerance counters from a finished
/// simulator into `result`. Shared by the CPPU drivers and the AFZ
/// baseline.
void AccumulateRoundStats(const MapReduceSimulator& sim, MrResult* result);

/// Driver for the MapReduce algorithms. Thread-safe for concurrent runs
/// only through distinct instances. Partitions are lists of row ids; each
/// reducer attempt gathers its partition's rows into a Dataset of its own
/// for the engine call, and no partition is ever turned into points.
class MapReduceDiversity {
 public:
  /// `metric` must outlive this object.
  MapReduceDiversity(const Metric* metric, DiversityProblem problem,
                     const MrOptions& options);

  /// 2-round algorithm (Theorems 6/7), fallible: recovers injected/transient
  /// task failures by bounded re-execution, degrades on permanent round-1
  /// partition loss (if allowed), and returns an error Status when the run
  /// cannot produce a certified result (aggregator failure, every partition
  /// lost, or degradation disallowed).
  StatusOr<MrResult> TryRun(const Dataset& input) const;

  /// 3-round generalized-core-set algorithm (Theorem 10). Requires an
  /// injective-proxy problem. Degradation applies to round 1 only; round-2
  /// solve and round-3 instantiation failures are fatal.
  StatusOr<MrResult> TryRunGeneralized(const Dataset& input) const;

  /// Multi-round recursion (Theorem 8): keeps compressing through rounds of
  /// composable core-sets until the aggregate has at most
  /// `local_memory_budget` points, then solves sequentially. Degradation
  /// applies at every compression level.
  StatusOr<MrResult> TryRunRecursive(const Dataset& input,
                                     size_t local_memory_budget) const;

 private:
  // The engine a run's tasks execute on: options_.engine when set, else an
  // in-process loopback engine on the driver's metric, emplaced into
  // `*fallback` (owned by the run).
  CommunicationEngine* Engine(std::optional<LoopbackEngine>* fallback) const;

  // The core-set construction one partition needs under the configured
  // problem family (kernel size clamped to the partition, GMM vs GMM-EXT,
  // the Theorem-7 delegate cap). Executed by the engine.
  CoresetSpec MakeCoresetSpec(size_t part_size, size_t input_size) const;

  // The executor policy derived from options_.
  FallibleRoundOptions ExecPolicy() const;

  // Runs one fallible core-set round over the row-id partitions `parts` of
  // `data` on `engine`, committing into `coresets` (resized to parts.size()).
  // On permanent task failures: degrades (drops the partitions, accumulating
  // the certificate into `*degraded`) when allowed, else returns the error.
  // `round_name` distinguishes recursion levels.
  Status CoresetRound(MapReduceSimulator* sim, CommunicationEngine* engine,
                      const std::string& round_name, const Dataset& data,
                      const std::vector<std::vector<uint32_t>>& parts,
                      size_t input_size, std::vector<PointSet>* coresets,
                      std::optional<DegradedResult>* degraded) const;

  // The final round of TryRun and TryRunRecursive: one reducer runs the
  // sequential alpha-approximation on `aggregate`. With one reducer there
  // is nothing to degrade to, so permanent failure is fatal.
  StatusOr<PointSet> SolveRound(MapReduceSimulator* sim,
                                CommunicationEngine* engine,
                                const PointSet& aggregate) const;

  // The last step of every driver: evaluates div(solution), stamps the
  // degradation certificate (if any) with the guaranteed factor, and
  // copies the round statistics and the run's wall time into the result.
  MrResult Finalize(PointSet solution, size_t coreset_size,
                    std::optional<DegradedResult> degraded,
                    const MapReduceSimulator& sim, const Timer& total) const;

  const Metric* metric_;
  DiversityProblem problem_;
  MrOptions options_;
};

}  // namespace diverse

#endif  // DIVERSE_MAPREDUCE_MR_DIVERSITY_H_
