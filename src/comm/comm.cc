#include "comm/comm.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "core/coreset.h"
#include "core/sequential.h"

namespace diverse {

PointSet ComputeCoreset(const Dataset& part, const Metric& metric,
                        const CoresetSpec& spec) {
  if (part.empty()) return {};
  const std::vector<size_t> ids =
      spec.extended ? GmmExtCoreset(part, metric, spec.k_prime, spec.delegates)
                    : GmmCoreset(part, metric, spec.k_prime);
  PointSet out;
  out.reserve(ids.size());
  for (size_t id : ids) out.push_back(part.point(id));
  return out;
}

GenCoresetResult ComputeGenCoreset(const Dataset& part, const Metric& metric,
                                   size_t k, size_t k_prime) {
  GenCoresetResult result;
  result.gen = GmmGenCoreset(part, metric, k, k_prime, &result.range);
  return result;
}

PointSet ComputeSolve(const Dataset& aggregate, DiversityProblem problem,
                      const Metric& metric, size_t k) {
  const size_t effective_k = std::min(k, aggregate.size());
  PointSet sol;
  if (effective_k == 0) return sol;
  std::vector<size_t> picked =
      SolveSequential(problem, aggregate, metric, effective_k);
  sol.reserve(picked.size());
  for (size_t idx : picked) sol.push_back(aggregate.point(idx));
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
                                      const Dataset& part,
                                      const Metric& metric, double range) {
  std::optional<std::vector<size_t>> ids =
      Instantiate(selected, part, metric, range);
  if (!ids.has_value()) {
    return FailedPreconditionError(
        "instantiation could not supply enough delegates (round '" +
        env.round + "', task " + std::to_string(env.task) + ")");
  }
  PointSet out;
  out.reserve(ids->size());
  for (size_t id : *ids) out.push_back(part.point(id));
  return out;
}

LoopbackEngine::LoopbackEngine(const Metric* metric, DiversityProblem problem)
    : metric_(metric), problem_(problem) {}

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
  DIVERSE_ASSIGN_OR_RETURN(Dataset rows, Dataset::TryFromPoints(part));
  return CoresetRows(env, rows, spec);
}

StatusOr<PointSet> LoopbackEngine::CoresetRows(const TaskEnvelope& env,
                                               const Dataset& part,
                                               const CoresetSpec& spec) {
  DIVERSE_RETURN_IF_ERROR(ApplyTransportFault(env));
  return ComputeCoreset(part, *metric_, spec);
}

StatusOr<GenCoresetResult> LoopbackEngine::GenCoreset(const TaskEnvelope& env,
                                                      const PointSet& part,
                                                      size_t k,
                                                      size_t k_prime) {
  DIVERSE_ASSIGN_OR_RETURN(Dataset rows, Dataset::TryFromPoints(part));
  return GenCoresetRows(env, rows, k, k_prime);
}

StatusOr<GenCoresetResult> LoopbackEngine::GenCoresetRows(
    const TaskEnvelope& env, const Dataset& part, size_t k, size_t k_prime) {
  DIVERSE_RETURN_IF_ERROR(ApplyTransportFault(env));
  return ComputeGenCoreset(part, *metric_, k, k_prime);
}

StatusOr<PointSet> LoopbackEngine::Solve(const TaskEnvelope& env,
                                         const PointSet& aggregate,
                                         size_t k) {
  DIVERSE_RETURN_IF_ERROR(ApplyTransportFault(env));
  DIVERSE_ASSIGN_OR_RETURN(Dataset rows, Dataset::TryFromPoints(aggregate));
  return ComputeSolve(rows, problem_, *metric_, k);
}

StatusOr<GeneralizedCoreset> LoopbackEngine::GenSolve(
    const TaskEnvelope& env, const GeneralizedCoreset& merged, size_t k) {
  DIVERSE_RETURN_IF_ERROR(ApplyTransportFault(env));
  return ComputeGenSolve(merged, problem_, *metric_, k);
}

StatusOr<PointSet> LoopbackEngine::Instantiate(
    const TaskEnvelope& env, const GeneralizedCoreset& selected,
    const PointSet& part, double range) {
  DIVERSE_ASSIGN_OR_RETURN(Dataset rows, Dataset::TryFromPoints(part));
  return InstantiateRows(env, selected, rows, range);
}

StatusOr<PointSet> LoopbackEngine::InstantiateRows(
    const TaskEnvelope& env, const GeneralizedCoreset& selected,
    const Dataset& part, double range) {
  DIVERSE_RETURN_IF_ERROR(ApplyTransportFault(env));
  return ComputeInstantiate(env, selected, part, *metric_, range);
}

}  // namespace diverse
