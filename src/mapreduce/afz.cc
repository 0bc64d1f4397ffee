#include "mapreduce/afz.h"

#include <algorithm>
#include <numeric>

#include "core/coreset.h"
#include "core/sequential.h"
#include "util/check.h"
#include "util/timer.h"

namespace diverse {

namespace {

// AFZ round-1 core-set for one partition.
PointSet AfzPartitionCoreset(const PointSet& part, const Metric& metric,
                             DiversityProblem problem, size_t k,
                             size_t max_sweeps) {
  if (part.empty()) return {};  // empty reducer input (num_partitions > n)
  size_t kk = std::min(k, part.size());
  std::vector<size_t> chosen;
  if (problem == DiversityProblem::kRemoteEdge) {
    chosen = GmmCoreset(Dataset(part), metric, kk);
  } else {
    DIVERSE_CHECK(problem == DiversityProblem::kRemoteClique);
    // Local search from an arbitrary initial set (the first k points, as the
    // construction prescribes "any" initial solution).
    std::vector<size_t> initial(kk);
    std::iota(initial.begin(), initial.end(), 0);
    chosen = LocalSearchRemoteClique(part, metric, std::move(initial),
                                     max_sweeps);
  }
  PointSet out;
  out.reserve(chosen.size());
  for (size_t idx : chosen) out.push_back(part[idx]);
  return out;
}

}  // namespace

StatusOr<MrResult> TryRunAfz(const PointSet& input, const Metric& metric,
                             DiversityProblem problem,
                             const AfzOptions& options) {
  DIVERSE_CHECK(problem == DiversityProblem::kRemoteEdge ||
                problem == DiversityProblem::kRemoteClique);
  DIVERSE_RETURN_IF_ERROR(ValidateNumWorkers(options.num_workers));
  Timer total;
  MrResult result;
  MapReduceSimulator sim(options.num_workers);

  std::vector<PointSet> parts =
      PartitionPoints(input, options.num_partitions, options.partition,
                      options.seed, &metric);

  // AFZ runs fault-free: its reducers never fail, so every task commits on
  // its first attempt and both rounds succeed.
  std::vector<PointSet> coresets(parts.size());
  RoundOutcome coreset_round = sim.RunFallibleRound(
      "afz-coreset", parts.size(),
      [&](const MrTaskContext& ctx, std::function<void()>* commit) -> Status {
        const size_t i = ctx.task;
        PointSet cs = AfzPartitionCoreset(parts[i], metric, problem,
                                          options.k, options.max_sweeps);
        *commit = [&coresets, i, out = std::move(cs)]() mutable {
          coresets[i] = std::move(out);
        };
        return OkStatus();
      },
      FallibleRoundOptions{}, [&](size_t i) { return parts[i].size(); },
      [&](size_t i) { return coresets[i].size(); });
  DIVERSE_CHECK(coreset_round.ok());

  PointSet united;
  for (const PointSet& c : coresets) {
    united.insert(united.end(), c.begin(), c.end());
  }
  const Dataset aggregate(std::move(united));
  PointSet solution;
  RoundOutcome solve_round = sim.RunFallibleRound(
      "afz-solve", 1,
      [&](const MrTaskContext&, std::function<void()>* commit) -> Status {
        size_t k = std::min(options.k, aggregate.size());
        std::vector<size_t> picked =
            SolveSequential(problem, aggregate, metric, k);
        PointSet out;
        for (size_t idx : picked) out.push_back(aggregate.point(idx));
        *commit = [&solution, o = std::move(out)]() mutable {
          solution = std::move(o);
        };
        return OkStatus();
      },
      FallibleRoundOptions{}, [&](size_t) { return aggregate.size(); },
      [&](size_t) { return solution.size(); });
  DIVERSE_CHECK(solve_round.ok());

  result.solution = std::move(solution);
  result.diversity = EvaluateDiversity(problem, result.solution, metric);
  result.coreset_size = aggregate.size();
  AccumulateRoundStats(sim, &result);
  result.total_seconds = total.Seconds();
  return result;
}

}  // namespace diverse
