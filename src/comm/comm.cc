#include "comm/comm.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "core/coreset.h"
#include "core/sequential.h"
#include "util/thread_annotations.h"

namespace diverse {

PointSet ComputeCoreset(const PointSet& part, const Metric& metric,
                        const CoresetSpec& spec, Dataset* scratch) {
  if (part.empty()) return {};
  scratch->Assign(part);
  const std::vector<size_t> ids =
      spec.extended
          ? GmmExtCoreset(*scratch, metric, spec.k_prime, spec.delegates)
          : GmmCoreset(*scratch, metric, spec.k_prime);
  PointSet out;
  out.reserve(ids.size());
  for (size_t id : ids) out.push_back(scratch->point(id));
  return out;
}

GenCoresetResult ComputeGenCoreset(const PointSet& part, const Metric& metric,
                                   size_t k, size_t k_prime,
                                   Dataset* scratch) {
  GenCoresetResult result;
  scratch->Assign(part);
  result.gen = GmmGenCoreset(*scratch, metric, k, k_prime, &result.range);
  return result;
}

PointSet ComputeSolve(const PointSet& aggregate, DiversityProblem problem,
                      const Metric& metric, size_t k, Dataset* scratch) {
  const size_t effective_k = std::min(k, aggregate.size());
  PointSet sol;
  if (effective_k == 0) return sol;
  scratch->Assign(aggregate);
  std::vector<size_t> picked =
      SolveSequential(problem, *scratch, metric, effective_k);
  sol.reserve(picked.size());
  for (size_t idx : picked) sol.push_back(aggregate[idx]);
  return sol;
}

GeneralizedCoreset ComputeGenSolve(const GeneralizedCoreset& merged,
                                   DiversityProblem problem,
                                   const Metric& metric, size_t k) {
  const size_t effective_k = std::min(k, merged.ExpandedSize());
  if (effective_k == 0) return {};
  return SolveSequentialGeneralized(problem, merged, metric, effective_k);
}

StatusOr<PointSet> ComputeInstantiate(const TaskEnvelope& env,
                                      const GeneralizedCoreset& selected,
                                      const PointSet& part,
                                      const Metric& metric, double range,
                                      Dataset* scratch) {
  scratch->Assign(part);
  std::optional<std::vector<size_t>> ids =
      Instantiate(selected, *scratch, metric, range);
  if (!ids.has_value()) {
    return FailedPreconditionError(
        "instantiation could not supply enough delegates (round '" +
        env.round + "', task " + std::to_string(env.task) + ")");
  }
  PointSet out;
  out.reserve(ids->size());
  for (size_t id : *ids) out.push_back(part[id]);
  return out;
}

// A free-list of scratch Datasets: each call acquires one, Assign()s its
// input into it (reusing columnar capacity from earlier calls) and releases
// it, so at most one scratch exists per concurrently running reducer.
struct LoopbackEngine::ScratchPool {
  Dataset Acquire() DIVERSE_EXCLUDES(mu) {
    MutexLock lock(&mu);
    if (free.empty()) return Dataset();
    Dataset d = std::move(free.back());
    free.pop_back();
    return d;
  }

  void Release(Dataset d) DIVERSE_EXCLUDES(mu) {
    d.Clear();
    MutexLock lock(&mu);
    free.push_back(std::move(d));
  }

  Mutex mu;
  std::vector<Dataset> free DIVERSE_GUARDED_BY(mu);
};

LoopbackEngine::LoopbackEngine(const Metric* metric, DiversityProblem problem)
    : metric_(metric), problem_(problem),
      scratch_(std::make_unique<ScratchPool>()) {}

LoopbackEngine::~LoopbackEngine() = default;

Status LoopbackEngine::ApplyTransportFault(const TaskEnvelope& env) const {
  auto at = [&env]() {
    return " (round '" + env.round + "', task " + std::to_string(env.task) +
           ", attempt " + std::to_string(env.attempt) + ")";
  };
  switch (env.fault) {
    case FaultKind::kWorkerCrash:
      return AbortedError("injected worker crash" + at());
    case FaultKind::kConnDrop:
      return UnavailableError("injected connection drop" + at());
    case FaultKind::kFrameCorrupt:
      return DataLossError("injected frame corruption" + at());
    case FaultKind::kReplyDelay:
      return DeadlineExceededError("injected reply delay outlived the RPC "
                                   "deadline" +
                                   at());
    case FaultKind::kReadStall:
      // The socket transport's write deadline expires against the stalled
      // reader; loopback has no socket, so it simulates the outcome.
      return DeadlineExceededError(
          "injected read stall outlived the write deadline" + at());
    case FaultKind::kCacheEvict:
      // A success-path fault: the socket transport falls back to a full
      // re-ship and the attempt completes. Loopback has no serialization
      // to skip, so the no-op IS the faithful simulation.
      return OkStatus();
    default:
      return OkStatus();
  }
}

StatusOr<PointSet> LoopbackEngine::Coreset(const TaskEnvelope& env,
                                           const PointSet& part,
                                           const CoresetSpec& spec) {
  DIVERSE_RETURN_IF_ERROR(ApplyTransportFault(env));
  if (part.empty()) return PointSet{};
  Dataset scratch = scratch_->Acquire();
  PointSet cs = ComputeCoreset(part, *metric_, spec, &scratch);
  scratch_->Release(std::move(scratch));
  return cs;
}

StatusOr<GenCoresetResult> LoopbackEngine::GenCoreset(const TaskEnvelope& env,
                                                      const PointSet& part,
                                                      size_t k,
                                                      size_t k_prime) {
  DIVERSE_RETURN_IF_ERROR(ApplyTransportFault(env));
  Dataset scratch = scratch_->Acquire();
  GenCoresetResult result =
      ComputeGenCoreset(part, *metric_, k, k_prime, &scratch);
  scratch_->Release(std::move(scratch));
  return result;
}

StatusOr<PointSet> LoopbackEngine::MergeCoresets(const TaskEnvelope& env,
                                                 const PointSet& a,
                                                 const PointSet& b) {
  DIVERSE_RETURN_IF_ERROR(ApplyTransportFault(env));
  PointSet merged;
  merged.reserve(a.size() + b.size());
  merged.insert(merged.end(), a.begin(), a.end());
  merged.insert(merged.end(), b.begin(), b.end());
  return merged;
}

StatusOr<PointSet> LoopbackEngine::Solve(const TaskEnvelope& env,
                                         const PointSet& aggregate,
                                         size_t k) {
  DIVERSE_RETURN_IF_ERROR(ApplyTransportFault(env));
  Dataset scratch = scratch_->Acquire();
  PointSet sol = ComputeSolve(aggregate, problem_, *metric_, k, &scratch);
  scratch_->Release(std::move(scratch));
  return sol;
}

StatusOr<GeneralizedCoreset> LoopbackEngine::GenSolve(
    const TaskEnvelope& env, const GeneralizedCoreset& merged, size_t k) {
  DIVERSE_RETURN_IF_ERROR(ApplyTransportFault(env));
  return ComputeGenSolve(merged, problem_, *metric_, k);
}

StatusOr<PointSet> LoopbackEngine::Instantiate(
    const TaskEnvelope& env, const GeneralizedCoreset& selected,
    const PointSet& part, double range) {
  DIVERSE_RETURN_IF_ERROR(ApplyTransportFault(env));
  Dataset scratch = scratch_->Acquire();
  StatusOr<PointSet> inst =
      ComputeInstantiate(env, selected, part, *metric_, range, &scratch);
  scratch_->Release(std::move(scratch));
  return inst;
}

}  // namespace diverse
