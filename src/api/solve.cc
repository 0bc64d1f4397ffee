#include "api/solve.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/sequential.h"
#include "mapreduce/mr_diversity.h"
#include "streaming/streaming_diversity.h"
#include "util/timer.h"

namespace diverse {

std::string BackendName(Backend backend) {
  switch (backend) {
    case Backend::kSequential:
      return "sequential";
    case Backend::kStreaming:
      return "streaming";
    case Backend::kStreamingTwoPass:
      return "streaming-2pass";
    case Backend::kMapReduce:
      return "mapreduce";
    case Backend::kMapReduceRandomized:
      return "mapreduce-randomized";
    case Backend::kMapReduceGeneralized:
      return "mapreduce-generalized";
    case Backend::kMapReduceRecursive:
      return "mapreduce-recursive";
  }
  return "unknown";
}

Backend ParseBackend(const std::string& name, bool* ok) {
  for (Backend b :
       {Backend::kSequential, Backend::kStreaming, Backend::kStreamingTwoPass,
        Backend::kMapReduce, Backend::kMapReduceRandomized,
        Backend::kMapReduceGeneralized, Backend::kMapReduceRecursive}) {
    if (BackendName(b) == name) {
      if (ok != nullptr) *ok = true;
      return b;
    }
  }
  if (ok != nullptr) *ok = false;
  return Backend::kSequential;
}

namespace {

// Applies the "auto" rules documented on SolveOptions.
SolveOptions Normalize(const SolveOptions& in) {
  SolveOptions o = in;
  if (o.k_prime == 0) o.k_prime = 4 * o.k;
  o.k_prime = std::max(o.k_prime, o.k);
  // num_partitions is intentionally NOT clamped to n: a fleet larger than
  // the input simply runs reducers on empty partitions (the partitioner
  // returns empty tails), matching how a fixed cluster behaves on a small
  // round.
  if (o.num_partitions == 0) o.num_partitions = 8;
  if (o.num_workers == 0) o.num_workers = o.num_partitions;
  if (o.local_memory_budget == 0) {
    o.local_memory_budget = std::max<size_t>(4 * o.k_prime * o.k, 1024);
  }
  return o;
}

SolveResult FromStreaming(StreamingResult r, size_t passes) {
  SolveResult out;
  out.solution = std::move(r.solution);
  out.diversity = r.diversity;
  out.coreset_size = r.coreset_size;
  out.rounds_or_passes = passes;
  return out;
}

SolveResult FromMr(MrResult r) {
  SolveResult out;
  out.solution = std::move(r.solution);
  out.diversity = r.diversity;
  out.coreset_size = r.coreset_size;
  out.rounds_or_passes = r.rounds;
  out.degraded = std::move(r.degraded);
  return out;
}

Status ValidateSolveInput(const Dataset& data, const SolveOptions& o) {
  if (o.k == 0) {
    return InvalidArgumentError("k must be at least 1");
  }
  if (o.k > data.size()) {
    return InvalidArgumentError("k (" + std::to_string(o.k) +
                                ") exceeds the input size (" +
                                std::to_string(data.size()) + ")");
  }
  if (o.k_prime != 0 && o.k_prime < o.k) {
    return InvalidArgumentError("k_prime (" + std::to_string(o.k_prime) +
                                ") must be 0 (auto) or at least k (" +
                                std::to_string(o.k) + ")");
  }
  if ((o.backend == Backend::kStreamingTwoPass ||
       o.backend == Backend::kMapReduceGeneralized) &&
      !RequiresInjectiveProxies(o.problem)) {
    return InvalidArgumentError(
        "backend '" + BackendName(o.backend) +
        "' uses generalized core-sets, which the paper defines only for "
        "injective-proxy problems; '" +
        ProblemName(o.problem) + "' is not one");
  }
  for (size_t i = 0; i < data.size(); ++i) {
    const kernels::VecView v = data.row(i);
    if (!std::all_of(v.values, v.values + v.nnz,
                     [](float x) { return std::isfinite(x); })) {
      return InvalidArgumentError("input point " + std::to_string(i) +
                                  " has a non-finite (NaN/inf) coordinate");
    }
  }
  return OkStatus();
}

MrOptions ToMrOptions(const SolveOptions& o) {
  MrOptions mr;
  mr.k = o.k;
  mr.k_prime = o.k_prime;
  mr.num_partitions = o.num_partitions;
  mr.num_workers = o.num_workers;
  mr.seed = o.seed;
  mr.randomized_delegate_cap = (o.backend == Backend::kMapReduceRandomized);
  mr.max_retries = o.max_retries;
  mr.task_timeout_ms = o.task_timeout_ms;
  mr.allow_degraded = o.allow_degraded;
  mr.faults = o.faults;
  mr.engine = o.engine;
  mr.tree_reduce = o.tree_reduce;
  return mr;
}

}  // namespace

StatusOr<SolveResult> TrySolve(const Dataset& data, const Metric& metric,
                               const SolveOptions& options) {
  DIVERSE_RETURN_IF_ERROR(ValidateSolveInput(data, options));
  const SolveOptions o = Normalize(options);
  Timer timer;
  SolveResult result;
  switch (o.backend) {
    case Backend::kSequential: {
      std::vector<size_t> picked =
          SolveSequential(o.problem, data, metric, o.k);
      for (size_t idx : picked) result.solution.push_back(data.point(idx));
      // Evaluated straight off the dataset rows (tiled restricted matrix);
      // bit-identical to evaluating the copied solution PointSet.
      result.diversity =
          EvaluateDiversitySubset(o.problem, data, picked, metric);
      break;
    }
    case Backend::kStreaming: {
      StreamingDiversity sd(&metric, o.problem, o.k, o.k_prime);
      sd.UpdateAll(data);
      result = FromStreaming(sd.Finalize(), 1);
      break;
    }
    case Backend::kStreamingTwoPass: {
      TwoPassStreamingDiversity sd(&metric, o.problem, o.k, o.k_prime);
      sd.UpdateAllFirstPass(data);
      sd.EndFirstPass();
      sd.UpdateAllSecondPass(data);
      result = FromStreaming(sd.Finalize(), 2);
      break;
    }
    case Backend::kMapReduce:
    case Backend::kMapReduceRandomized:
    case Backend::kMapReduceGeneralized:
    case Backend::kMapReduceRecursive: {
      MapReduceDiversity driver(&metric, o.problem, ToMrOptions(o));
      StatusOr<MrResult> run =
          o.backend == Backend::kMapReduceGeneralized
              ? driver.TryRunGeneralized(data)
              : o.backend == Backend::kMapReduceRecursive
                    ? driver.TryRunRecursive(data, o.local_memory_budget)
                    : driver.TryRun(data);
      if (!run.ok()) return run.status();
      result = FromMr(std::move(*run));
      break;
    }
  }
  result.seconds = timer.Seconds();
  return result;
}

StatusOr<SolveResult> TrySolve(const PointSet& points, const Metric& metric,
                               const SolveOptions& options) {
  StatusOr<Dataset> data = Dataset::TryFromPoints(points);
  if (!data.ok()) return data.status();
  return TrySolve(*data, metric, options);
}

}  // namespace diverse
