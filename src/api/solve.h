// Unified front door: one configuration struct and one TrySolve() call that
// validates the request and dispatches to the sequential, streaming (1- or
// 2-pass), or MapReduce (2-round, randomized, 3-round generalized,
// recursive) back end. This is the API the CLI tool and most downstream
// users go through; the individual drivers remain available for callers
// that need streaming Update() hooks or custom partitioning.

#ifndef DIVERSE_API_SOLVE_H_
#define DIVERSE_API_SOLVE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "core/dataset.h"
#include "core/diversity.h"
#include "core/metric.h"
#include "core/point.h"
#include "mapreduce/mr_diversity.h"
#include "util/status.h"

namespace diverse {

/// Which execution backend to use.
enum class Backend : uint8_t {
  kSequential,
  kStreaming,          // 1 pass (Theorem 3)
  kStreamingTwoPass,   // 2 passes, generalized core-sets (Theorem 9)
  kMapReduce,          // 2 rounds (Theorem 6)
  kMapReduceRandomized,  // 2 rounds, randomized delegate cap (Theorem 7)
  kMapReduceGeneralized,  // 3 rounds, generalized core-sets (Theorem 10)
  kMapReduceRecursive,    // multi-round recursion (Theorem 8)
};

/// Short name, e.g. "streaming".
std::string BackendName(Backend backend);

/// Inverse of BackendName (returns kSequential for unknown names and sets
/// *ok to false if provided).
Backend ParseBackend(const std::string& name, bool* ok = nullptr);

/// Full configuration for TrySolve().
struct SolveOptions {
  DiversityProblem problem = DiversityProblem::kRemoteEdge;
  Backend backend = Backend::kSequential;
  /// Solution size.
  size_t k = 8;
  /// Core-set kernel size (ignored by kSequential). 0 means "auto": 4k.
  size_t k_prime = 0;
  /// MapReduce: number of partitions / reducers. 0 means "auto": 8.
  size_t num_partitions = 0;
  /// MapReduce: simulated processors, one thread each. 0 means "auto":
  /// min(num_partitions, kMaxMapReduceWorkers); an explicit value above
  /// kMaxMapReduceWorkers is kInvalidArgument.
  size_t num_workers = 0;
  /// MapReduce recursive backend: local memory budget in points.
  /// 0 means "auto": max(4 k' k, 1024).
  size_t local_memory_budget = 0;
  uint64_t seed = 1;

  // Fault tolerance (MapReduce backends; see README "Fault tolerance &
  // degradation").
  /// Retries per MapReduce task beyond the first attempt.
  size_t max_retries = 2;
  /// Straggler wall-clock budget per task attempt in ms (0 disables the
  /// timeout; stragglers past it race a speculative duplicate).
  uint64_t task_timeout_ms = 0;
  /// Complete on surviving partitions (reporting SolveResult::degraded)
  /// when a core-set partition permanently fails, instead of failing the
  /// whole solve.
  bool allow_degraded = true;
  /// Deterministic fault schedule for testing recovery paths; not owned,
  /// must outlive the call. Null = fault-free execution.
  const FaultInjector* faults = nullptr;

  // Distributed runtime (MapReduce backends; see README "Distributed
  // runtime").
  /// Execution backend for MapReduce task compute. Null = in-process
  /// loopback (bit-identical to the historical simulator); a SocketEngine
  /// runs tasks in worker processes, streaming large partitions in bounded
  /// chunks and caching them worker-side by content fingerprint so repeated
  /// solves and retries ship a by-ref stub instead of the bytes (see
  /// SocketEngineOptions::chunk_bytes / worker_cache_bytes). Not owned;
  /// must outlive the call.
  CommunicationEngine* engine = nullptr;
};

/// Outcome of TrySolve().
struct SolveResult {
  /// The selected points: k of them, or fewer only when a degraded
  /// MapReduce run kept fewer than k core-set points.
  PointSet solution;
  /// div(solution) under options.problem.
  double diversity = 0.0;
  /// Core-set the final sequential step ran on (0 for kSequential).
  size_t coreset_size = 0;
  /// Rounds (MapReduce) or passes (streaming); 0 for kSequential.
  size_t rounds_or_passes = 0;
  /// Wall time of the whole solve, seconds.
  double seconds = 0.0;
  /// Present iff a MapReduce backend completed by dropping permanently
  /// failed partitions: the certificate of what guarantee remains.
  std::optional<DegradedResult> degraded;
};

/// Solves diversity maximization on the rows of `data` with the configured
/// backend. `metric` must outlive the call; its KernelPolicy (core/metric.h)
/// decides whether the driver's sweeps screen in fp32 and use the metric
/// index — results are bit-identical under every policy. Every backend runs
/// its distance-dominated loops on the columnar batch kernels; callers that
/// solve repeatedly on one input should build the Dataset once and use this
/// overload. Structurally invalid requests are rejected, never adjusted:
///   * kInvalidArgument: k == 0; k > n (including empty input); k' < k;
///     a non-finite (NaN/inf) input coordinate; a backend/problem pairing
///     the paper's algorithms are undefined for (the generalized core-set
///     backends kStreamingTwoPass and kMapReduceGeneralized on
///     non-injective-proxy problems; everything else accepts all six);
///     for kMapReduceRecursive, a nonzero local_memory_budget below the
///     effective k' (k_prime, or 4k when k_prime is 0).
/// MapReduce task failures surface as the underlying driver error
/// (kDataLoss, kAborted, ...) when recovery and degradation cannot
/// complete the run.
DIVERSE_MUST_USE StatusOr<SolveResult> TrySolve(
    const Dataset& data, const Metric& metric, const SolveOptions& options);

/// Copies `points` into a Dataset, the solve's only copy, and solves on it.
/// Points of differing dims are kInvalidArgument (Dataset::TryFromPoints).
DIVERSE_MUST_USE StatusOr<SolveResult> TrySolve(
    const PointSet& points, const Metric& metric,
    const SolveOptions& options);

}  // namespace diverse

#endif  // DIVERSE_API_SOLVE_H_
