// The communication engine of the MapReduce drivers: the seam between the
// algorithm (partitioning, validation, retry/degrade policy — all in
// src/mapreduce/) and where a task's compute actually runs.
//
// Two implementations:
//   * LoopbackEngine — executes in-process on the driver's own Metric
//     pointer. This is the default and preserves the historical simulator
//     exactly (custom metrics, CountingMetric accounting, bit-identical
//     results, zero serialization).
//   * SocketEngine (comm/socket_engine.h) — serializes each call over the
//     frame protocol to a pool of forked worker processes, with
//     heartbeats, RPC deadlines and crash recovery.
//
// Both answer the same typed calls, and both apply the *transport* fault
// kinds of the FaultInjector (forwarded by the driver through the
// TaskEnvelope): loopback simulates the failure outcome (the Status a real
// transport would surface), the socket engine inflicts the real thing
// (SIGKILL, dropped connection, corrupted frame, delayed reply). Either
// way the executor above sees the same error taxonomy and drives the same
// retry -> speculative re-launch -> degrade recovery paths.
//
// The Compute* free functions are the pure task bodies, shared by
// LoopbackEngine and the worker process (comm/worker_core.cc) so the
// remote path runs literally the same code — the fault-free
// "distributed == in-process" bit-identity tests rest on that.

#ifndef DIVERSE_COMM_COMM_H_
#define DIVERSE_COMM_COMM_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "core/dataset.h"
#include "core/diversity.h"
#include "core/generalized_coreset.h"
#include "core/metric.h"
#include "core/point.h"
#include "mapreduce/fault_injector.h"
#include "util/status.h"

namespace diverse {

/// Identity + fault context of one engine call. `round`/`task`/`attempt`
/// name the executor attempt the call serves (error messages, fault
/// determinism); `fault` is the transport fault (IsTransportFault) this
/// call must apply, kNone otherwise.
struct TaskEnvelope {
  std::string round;
  size_t task = 0;
  size_t attempt = 0;
  FaultKind fault = FaultKind::kNone;
  uint64_t fault_param = 0;
};

/// What core-set to build on a partition.
struct CoresetSpec {
  /// Kernel size (already clamped to the partition size by the driver).
  size_t k_prime = 1;
  /// Delegates per cluster for GMM-EXT; meaningful iff `extended`.
  size_t delegates = 0;
  /// GMM-EXT (delegate-augmented, Theorem 5) vs plain GMM (Theorem 4).
  bool extended = false;
};

/// GenCoreset result: the generalized core-set and its kernel range
/// (the r_{T_i} of Theorem 10).
struct GenCoresetResult {
  GeneralizedCoreset gen;
  double range = 0.0;
};

/// Where MapReduce task compute runs. Calls are thread-safe (reducer
/// attempts of one round run concurrently) and must be deterministic per
/// (inputs, spec) — retried and speculative attempts rely on identical
/// re-execution. Errors come back as Status in the executor's taxonomy
/// (kAborted: worker died; kUnavailable: connection lost; kDataLoss:
/// corrupt bytes; kDeadlineExceeded: RPC deadline).
class CommunicationEngine {
 public:
  virtual ~CommunicationEngine() = default;

  /// "loopback" or "socket" — result provenance in logs and benches.
  virtual std::string BackendName() const = 0;

  /// True when the engine keeps a worker partition cache, keyed by the
  /// content it fingerprints on each ship. No driver reads this any more;
  /// perfbench's TracingEngine forwards it.
  virtual bool WantsPartitionCacheKeys() const { return false; }

  /// GMM / GMM-EXT core-set of one partition (round 1 of the 2-round and
  /// recursive drivers).
  virtual StatusOr<PointSet> Coreset(const TaskEnvelope& env,
                                     const PointSet& part,
                                     const CoresetSpec& spec) = 0;

  /// GMM-GEN generalized core-set of one partition (round 1, 3-round
  /// driver).
  virtual StatusOr<GenCoresetResult> GenCoreset(const TaskEnvelope& env,
                                                const PointSet& part,
                                                size_t k, size_t k_prime) = 0;

  /// One tree-reduction node: the concatenation a ++ b, order preserved.
  /// Associative with the identity [], so any reduction tree over the
  /// per-partition core-sets yields the same final union as a single
  /// aggregator — which is why tree-reduced runs stay bit-identical.
  virtual StatusOr<PointSet> MergeCoresets(const TaskEnvelope& env,
                                           const PointSet& a,
                                           const PointSet& b) = 0;

  /// Sequential alpha-approximation on the aggregated core-set: the
  /// min(k, |aggregate|) selected points, in selection order.
  virtual StatusOr<PointSet> Solve(const TaskEnvelope& env,
                                   const PointSet& aggregate, size_t k) = 0;

  /// SolveSequentialGeneralized on the merged generalized core-set.
  virtual StatusOr<GeneralizedCoreset> GenSolve(const TaskEnvelope& env,
                                                const GeneralizedCoreset& merged,
                                                size_t k) = 0;

  /// Instantiates the selected entries owned by one partition: distinct
  /// delegates within `range` of each kernel point. kFailedPrecondition
  /// when the partition cannot supply enough delegates.
  virtual StatusOr<PointSet> Instantiate(const TaskEnvelope& env,
                                         const GeneralizedCoreset& selected,
                                         const PointSet& part,
                                         double range) = 0;
};

// ---- Pure compute cores (shared by loopback and the worker process) ----

/// Core-set of a partition per `spec`. `scratch` is the reducer's columnar
/// scratch (capacity reused across calls); cleared by the caller's pool.
PointSet ComputeCoreset(const PointSet& part, const Metric& metric,
                        const CoresetSpec& spec, Dataset* scratch);

/// GMM-GEN on a partition. Requires a non-empty partition.
GenCoresetResult ComputeGenCoreset(const PointSet& part, const Metric& metric,
                                   size_t k, size_t k_prime, Dataset* scratch);

/// SolveSequential over `aggregate`: the min(k, |aggregate|) picked points.
PointSet ComputeSolve(const PointSet& aggregate, DiversityProblem problem,
                      const Metric& metric, size_t k, Dataset* scratch);

/// SolveSequentialGeneralized over `merged` with target expanded size
/// min(k, m(merged)).
GeneralizedCoreset ComputeGenSolve(const GeneralizedCoreset& merged,
                                   DiversityProblem problem,
                                   const Metric& metric, size_t k);

/// Instantiate `selected` from `part` within `range`; error (naming
/// env.round/env.task) when the partition cannot supply enough delegates.
StatusOr<PointSet> ComputeInstantiate(const TaskEnvelope& env,
                                      const GeneralizedCoreset& selected,
                                      const PointSet& part,
                                      const Metric& metric, double range);

/// The in-process engine: runs every call directly on the driver's metric.
/// Thread-safe; owns a scratch-Dataset pool so concurrent reducers reuse
/// columnar capacity exactly as the pre-engine simulator did.
class LoopbackEngine final : public CommunicationEngine {
 public:
  /// `metric` must outlive this engine.
  LoopbackEngine(const Metric* metric, DiversityProblem problem);
  ~LoopbackEngine() override;

  std::string BackendName() const override { return "loopback"; }

  StatusOr<PointSet> Coreset(const TaskEnvelope& env, const PointSet& part,
                             const CoresetSpec& spec) override;
  StatusOr<GenCoresetResult> GenCoreset(const TaskEnvelope& env,
                                        const PointSet& part, size_t k,
                                        size_t k_prime) override;
  StatusOr<PointSet> MergeCoresets(const TaskEnvelope& env, const PointSet& a,
                                   const PointSet& b) override;
  StatusOr<PointSet> Solve(const TaskEnvelope& env, const PointSet& aggregate,
                           size_t k) override;
  StatusOr<GeneralizedCoreset> GenSolve(const TaskEnvelope& env,
                                        const GeneralizedCoreset& merged,
                                        size_t k) override;
  StatusOr<PointSet> Instantiate(const TaskEnvelope& env,
                                 const GeneralizedCoreset& selected,
                                 const PointSet& part, double range) override;

 private:
  struct ScratchPool;

  // Simulates the Status outcome of the transport fault in `env` — the
  // same error code the socket transport surfaces after inflicting the
  // real failure. OK when env carries no transport fault.
  Status ApplyTransportFault(const TaskEnvelope& env) const;

  const Metric* metric_;
  DiversityProblem problem_;
  std::unique_ptr<ScratchPool> scratch_;
};

}  // namespace diverse

#endif  // DIVERSE_COMM_COMM_H_
