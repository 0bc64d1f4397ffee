#include "mapreduce/mr_diversity.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <utility>

#include "core/generalized_coreset.h"
#include "core/sequential.h"
#include "util/check.h"
#include "util/timer.h"

namespace diverse {

namespace {

// Deterministic single-coordinate corruption (NaN) used to simulate
// wrong-output and corrupted-partition faults. The validators below are the
// detection side of the same coin.
Point GarblePoint(const Point& p, uint64_t sub_seed) {
  if (p.nnz() == 0) return p;
  kernels::VecView v = p.View();
  std::vector<float> val(v.values, v.values + v.nnz);
  val[sub_seed % val.size()] = std::numeric_limits<float>::quiet_NaN();
  v.values = val.data();
  v.norm = std::numeric_limits<double>::quiet_NaN();
  return Point().Assign(v);
}

void GarbleOne(PointSet* pts, uint64_t sub_seed) {
  if (pts->empty()) return;
  size_t t = sub_seed % pts->size();
  (*pts)[t] = GarblePoint((*pts)[t], sub_seed);
}

// Rows `rows` of `data` as the points one reducer attempt ships, garbled
// under a corrupted-partition fault. Every attempt re-reads the pristine
// rows, which is why detection plus re-execution recovers exactly.
PointSet PartitionInput(const MrTaskContext& ctx, const Dataset& data,
                        std::span<const uint32_t> rows) {
  PointSet out;
  out.reserve(rows.size());
  for (uint32_t r : rows) out.push_back(data.point(r));
  if (ctx.fault == FaultKind::kCorruptPartition) {
    GarbleOne(&out, ctx.fault_param);
  }
  return out;
}

// The input the solve attempt reads: `pristine`, or under a
// corrupted-partition fault a garbled copy held in `*scratch`.
const PointSet& AttemptInput(const MrTaskContext& ctx,
                             const PointSet& pristine, PointSet* scratch) {
  if (ctx.fault != FaultKind::kCorruptPartition || pristine.empty()) {
    return pristine;
  }
  *scratch = pristine;
  GarbleOne(scratch, ctx.fault_param);
  return *scratch;
}

// Point::operator== between row r of `data` and `p`, building no point.
bool RowEquals(const Dataset& data, size_t r, const Point& p) {
  const kernels::VecView a = data.row(r);
  const kernels::VecView b = p.View();
  return a.sparse == b.sparse && a.dim == b.dim && a.nnz == b.nnz &&
         std::equal(a.values, a.values + a.nnz, b.values) &&
         (!a.sparse || std::equal(a.indices, a.indices + a.nnz, b.indices));
}

// Moves every point of `parts` into one set, in order.
PointSet Concatenate(std::vector<PointSet>* parts) {
  size_t total = 0;
  for (const PointSet& p : *parts) total += p.size();
  PointSet out;
  out.reserve(total);
  for (PointSet& p : *parts) {
    out.insert(out.end(), std::make_move_iterator(p.begin()),
               std::make_move_iterator(p.end()));
  }
  return out;
}

Status ValidateFinitePoints(const char* what, const std::string& round,
                            size_t task, const PointSet& pts) {
  for (size_t j = 0; j < pts.size(); ++j) {
    if (!PointIsFinite(pts[j])) {
      return DataLossError(std::string(what) +
                           " contains a non-finite coordinate (round '" +
                           round + "', task " + std::to_string(task) +
                           ", point " + std::to_string(j) + ")");
    }
  }
  return OkStatus();
}

// A core-set of a non-empty partition is non-empty and every coordinate is
// finite. (No upper size bound: GMM-EXT may emit repeated entries when the
// partition holds duplicate points, so the core-set can exceed the
// partition's point count.) Violations mean the attempt's output cannot be
// trusted and the task must re-execute.
Status ValidateCoresetOutput(const std::string& round, size_t task,
                             const PointSet& coreset, size_t part_size) {
  if (coreset.empty() != (part_size == 0)) {
    return DataLossError("core-set output size " +
                         std::to_string(coreset.size()) +
                         " inconsistent with partition size " +
                         std::to_string(part_size) + " (round '" + round +
                         "', task " + std::to_string(task) + ")");
  }
  return ValidateFinitePoints("core-set output", round, task, coreset);
}

Status ValidateGenEntries(const char* what, const std::string& round,
                          size_t task, const GeneralizedCoreset& gen) {
  for (size_t e = 0; e < gen.entries().size(); ++e) {
    const WeightedPoint& wp = gen.entries()[e];
    if (wp.multiplicity == 0) {
      return DataLossError(std::string(what) +
                           " has a zero multiplicity (round '" + round +
                           "', task " + std::to_string(task) + ", entry " +
                           std::to_string(e) + ")");
    }
    if (!PointIsFinite(wp.point)) {
      return DataLossError(std::string(what) +
                           " contains a non-finite coordinate (round '" +
                           round + "', task " + std::to_string(task) +
                           ", entry " + std::to_string(e) + ")");
    }
  }
  return OkStatus();
}

GeneralizedCoreset GarbleGen(const GeneralizedCoreset& gen,
                             uint64_t sub_seed) {
  GeneralizedCoreset out;
  if (gen.size() == 0) return out;
  size_t target = sub_seed % gen.size();
  for (size_t e = 0; e < gen.entries().size(); ++e) {
    const WeightedPoint& wp = gen.entries()[e];
    out.Add(e == target ? GarblePoint(wp.point, sub_seed) : wp.point,
            wp.multiplicity);
  }
  return out;
}

// The engine-call identity of one reducer attempt. Transport faults ride
// along so the engine (not the executor) inflicts them — the executor
// already counted the probe; data faults stay in the reducer body.
TaskEnvelope MakeEnvelope(const std::string& round, const MrTaskContext& ctx) {
  TaskEnvelope env;
  env.round = round;
  env.task = ctx.task;
  env.attempt = ctx.attempt;
  if (IsTransportFault(ctx.fault)) {
    env.fault = ctx.fault;
    env.fault_param = ctx.fault_param;
  }
  return env;
}

Status AnnotateRoundFailure(const std::string& round_name,
                            const Status& error) {
  return Status(error.code(), "round '" + round_name +
                                  "' permanently failed: " + error.message());
}

// Folds the permanently-failed tasks of a partition-level round into the
// run's degradation certificate: the failed partitions are dropped and the
// certificate records how much of the input the remaining guarantee still
// covers. Returns the round error when degradation is disallowed or no
// input point survives.
Status ApplyRoundDegradation(const std::string& round_name,
                             const std::vector<std::vector<uint32_t>>& parts,
                             const RoundOutcome& outcome, bool allow_degraded,
                             std::optional<DegradedResult>* degraded) {
  if (outcome.ok()) return OkStatus();
  if (!allow_degraded) {
    return Status(outcome.first_error.code(),
                  "round '" + round_name + "' permanently failed " +
                      std::to_string(outcome.failed_tasks.size()) +
                      " task(s) and degradation is disabled: " +
                      outcome.first_error.message());
  }
  size_t total = 0;
  size_t lost = 0;
  for (const std::vector<uint32_t>& p : parts) total += p.size();
  for (size_t f : outcome.failed_tasks) lost += parts[f].size();
  if (total > 0 && lost >= total) {
    return DataLossError("round '" + round_name +
                         "': every input point was in a permanently failed "
                         "partition; last error: " +
                         outcome.first_error.message());
  }
  if (!degraded->has_value()) degraded->emplace();
  DegradedResult& d = **degraded;
  for (size_t f : outcome.failed_tasks) d.failed_partitions.push_back(f);
  d.total_points += total;
  d.surviving_points += total - lost;
  if (total > 0) {
    d.surviving_fraction *= static_cast<double>(total - lost) /
                            static_cast<double>(total);
  }
  return OkStatus();
}

}  // namespace

MapReduceDiversity::MapReduceDiversity(const Metric* metric,
                                       DiversityProblem problem,
                                       const MrOptions& options)
    : metric_(metric), problem_(problem), options_(options) {
  DIVERSE_CHECK(metric != nullptr);
  DIVERSE_CHECK_GE(options.k, 1u);
  DIVERSE_CHECK_GE(options.k_prime, options.k);
  DIVERSE_CHECK_GE(options.num_partitions, 1u);
  DIVERSE_CHECK_GE(options.num_workers, 1u);
}

CommunicationEngine* MapReduceDiversity::Engine(
    std::optional<LoopbackEngine>* fallback) const {
  if (options_.engine != nullptr) return options_.engine;
  fallback->emplace(metric_, problem_);
  return &**fallback;
}

void AccumulateRoundStats(const MapReduceSimulator& sim, MrResult* result) {
  result->rounds = sim.num_rounds();
  for (const RoundStats& r : sim.rounds()) {
    result->round_seconds.push_back(r.wall_seconds);
    result->max_local_memory_points =
        std::max(result->max_local_memory_points, r.MaxInputPoints());
    result->shuffle_points += r.TotalOutputPoints();
    result->task_attempts += r.attempts;
    result->task_retries += r.retries;
    result->task_timeouts += r.timeouts;
    result->faults_injected += r.faults_injected;
  }
}

CoresetSpec MapReduceDiversity::MakeCoresetSpec(size_t part_size,
                                                size_t input_size) const {
  CoresetSpec spec;
  spec.k_prime = std::min(options_.k_prime, std::max<size_t>(part_size, 1));
  spec.extended = RequiresInjectiveProxies(problem_);
  if (!spec.extended) return spec;
  spec.delegates = options_.k - 1;
  if (options_.randomized_delegate_cap) {
    // Theorem 7: with a random partition, no part holds more than
    // Theta(max(log n, k/l)) points of any optimal solution w.h.p., so that
    // many delegates per cluster suffice. The deterministic k-1 is always
    // enough, so the cap never exceeds it.
    size_t log_n = static_cast<size_t>(
        std::ceil(std::log2(static_cast<double>(std::max<size_t>(input_size, 2)))));
    size_t k_over_l =
        (options_.k + options_.num_partitions - 1) / options_.num_partitions;
    spec.delegates = std::min(options_.k - 1, std::max(log_n, k_over_l));
  }
  return spec;
}

FallibleRoundOptions MapReduceDiversity::ExecPolicy() const {
  FallibleRoundOptions exec;
  exec.max_attempts = options_.max_retries + 1;
  exec.task_timeout_ms = options_.task_timeout_ms;
  exec.faults = options_.faults;
  exec.clock = options_.clock;
  return exec;
}

Status MapReduceDiversity::CoresetRound(
    MapReduceSimulator* sim, CommunicationEngine* engine,
    const std::string& round_name, const Dataset& data,
    const std::vector<std::vector<uint32_t>>& parts, size_t input_size,
    std::vector<PointSet>* coresets,
    std::optional<DegradedResult>* degraded) const {
  coresets->assign(parts.size(), PointSet{});
  RoundOutcome outcome = sim->RunFallibleRound(
      round_name, parts.size(),
      [&](const MrTaskContext& ctx, std::function<void()>* commit) -> Status {
        const size_t i = ctx.task;
        const PointSet in = PartitionInput(ctx, data, parts[i]);
        DIVERSE_RETURN_IF_ERROR(
            ValidateFinitePoints("input partition", round_name, i, in));
        StatusOr<PointSet> cs_or = engine->Coreset(
            MakeEnvelope(round_name, ctx), in,
            MakeCoresetSpec(in.size(), input_size));
        if (!cs_or.ok()) return cs_or.status();
        PointSet cs = std::move(*cs_or);
        if (ctx.fault == FaultKind::kEmptyOutput) cs.clear();
        if (ctx.fault == FaultKind::kWrongOutput) GarbleOne(&cs, ctx.fault_param);
        DIVERSE_RETURN_IF_ERROR(
            ValidateCoresetOutput(round_name, i, cs, parts[i].size()));
        *commit = [coresets, i, out = std::move(cs)]() mutable {
          (*coresets)[i] = std::move(out);
        };
        return OkStatus();
      },
      ExecPolicy(), [&](size_t i) { return parts[i].size(); },
      [&](size_t i) { return (*coresets)[i].size(); });
  return ApplyRoundDegradation(round_name, parts, outcome,
                               options_.allow_degraded, degraded);
}

Status MapReduceDiversity::TreeReduce(MapReduceSimulator* sim,
                                      CommunicationEngine* engine,
                                      std::vector<PointSet>* coresets) const {
  std::vector<PointSet> layer = std::move(*coresets);
  int level = 0;
  while (layer.size() > 1) {
    const size_t pairs = layer.size() / 2;
    std::vector<PointSet> next((layer.size() + 1) / 2);
    if (layer.size() % 2 == 1) next.back() = std::move(layer.back());
    const std::string round_name = "reduce-l" + std::to_string(level);
    RoundOutcome outcome = sim->RunFallibleRound(
        round_name, pairs,
        [&](const MrTaskContext& ctx,
            std::function<void()>* commit) -> Status {
          const size_t i = ctx.task;
          StatusOr<PointSet> merged = engine->MergeCoresets(
              MakeEnvelope(round_name, ctx), layer[2 * i], layer[2 * i + 1]);
          if (!merged.ok()) return merged.status();
          PointSet out = std::move(*merged);
          if (ctx.fault == FaultKind::kEmptyOutput) out.clear();
          // A merge holds no pristine partition to corrupt, so both data
          // faults garble the output; validation catches either.
          if (ctx.fault == FaultKind::kWrongOutput ||
              ctx.fault == FaultKind::kCorruptPartition) {
            GarbleOne(&out, ctx.fault_param);
          }
          const size_t want = layer[2 * i].size() + layer[2 * i + 1].size();
          if (out.size() != want) {
            return DataLossError(
                "merge produced " + std::to_string(out.size()) + " of " +
                std::to_string(want) + " points (round '" + round_name +
                "', task " + std::to_string(i) + ")");
          }
          DIVERSE_RETURN_IF_ERROR(
              ValidateFinitePoints("merged core-set", round_name, i, out));
          *commit = [&next, i, o = std::move(out)]() mutable {
            next[i] = std::move(o);
          };
          return OkStatus();
        },
        ExecPolicy(),
        [&](size_t i) { return layer[2 * i].size() + layer[2 * i + 1].size(); },
        [&](size_t i) { return next[i].size(); });
    if (!outcome.ok()) {
      return AnnotateRoundFailure(round_name, outcome.first_error);
    }
    layer = std::move(next);
    ++level;
  }
  *coresets = std::move(layer);
  return OkStatus();
}

StatusOr<PointSet> MapReduceDiversity::SolveRound(
    MapReduceSimulator* sim, CommunicationEngine* engine,
    const PointSet& aggregate) const {
  PointSet solution;
  RoundOutcome solve = sim->RunFallibleRound(
      "solve", 1,
      [&](const MrTaskContext& ctx, std::function<void()>* commit) -> Status {
        PointSet corrupted;
        const PointSet& in = AttemptInput(ctx, aggregate, &corrupted);
        DIVERSE_RETURN_IF_ERROR(
            ValidateFinitePoints("aggregated core-set", "solve", 0, in));
        const size_t k = std::min(options_.k, in.size());
        StatusOr<PointSet> sol_or =
            engine->Solve(MakeEnvelope("solve", ctx), in, options_.k);
        if (!sol_or.ok()) return sol_or.status();
        PointSet sol = std::move(*sol_or);
        if (ctx.fault == FaultKind::kEmptyOutput) sol.clear();
        if (ctx.fault == FaultKind::kWrongOutput) GarbleOne(&sol, ctx.fault_param);
        if (sol.size() != k) {
          return DataLossError("solve produced " + std::to_string(sol.size()) +
                               " of " + std::to_string(k) +
                               " requested points");
        }
        DIVERSE_RETURN_IF_ERROR(
            ValidateFinitePoints("solution", "solve", 0, sol));
        *commit = [&solution, out = std::move(sol)]() mutable {
          solution = std::move(out);
        };
        return OkStatus();
      },
      ExecPolicy(), [&](size_t) { return aggregate.size(); },
      [&](size_t) { return solution.size(); });
  if (!solve.ok()) return AnnotateRoundFailure("solve", solve.first_error);
  return solution;
}

MrResult MapReduceDiversity::Finalize(PointSet solution, size_t coreset_size,
                                      std::optional<DegradedResult> degraded,
                                      const MapReduceSimulator& sim,
                                      const Timer& total) const {
  MrResult result;
  result.solution = std::move(solution);
  result.diversity = EvaluateDiversity(problem_, result.solution, *metric_);
  result.coreset_size = coreset_size;
  if (degraded.has_value()) {
    degraded->approx_factor = 2.0 * SequentialAlpha(problem_);
    result.degraded = std::move(degraded);
  }
  AccumulateRoundStats(sim, &result);
  result.total_seconds = total.Seconds();
  return result;
}

StatusOr<MrResult> MapReduceDiversity::TryRun(const Dataset& input) const {
  Timer total;
  MapReduceSimulator sim(options_.num_workers);
  std::optional<LoopbackEngine> fallback;
  CommunicationEngine* engine = Engine(&fallback);

  const std::vector<std::vector<uint32_t>> parts =
      PartitionRows(input, options_.num_partitions, options_.partition,
                    options_.seed, metric_);

  // Round 1: one reducer per partition computes its composable core-set.
  // Permanently failed partitions are dropped here (their core-set slot
  // stays empty) and accounted in `degraded`.
  std::vector<PointSet> coresets;
  std::optional<DegradedResult> degraded;
  DIVERSE_RETURN_IF_ERROR(CoresetRound(&sim, engine, "coreset", input, parts,
                                       input.size(), &coresets, &degraded));

  // Optional reduce rounds: collapse the core-set list through a binary
  // merge tree. Order-preserving concatenation is associative, so the lone
  // survivor equals the plain union below and the solve is unchanged.
  if (options_.tree_reduce) {
    DIVERSE_RETURN_IF_ERROR(TreeReduce(&sim, engine, &coresets));
  }

  // Final round: T = union of the (surviving) core-sets.
  const PointSet aggregate = Concatenate(&coresets);
  DIVERSE_ASSIGN_OR_RETURN(PointSet solution,
                           SolveRound(&sim, engine, aggregate));
  return Finalize(std::move(solution), aggregate.size(), std::move(degraded),
                  sim, total);
}

StatusOr<MrResult> MapReduceDiversity::TryRunGeneralized(
    const Dataset& input) const {
  DIVERSE_CHECK(RequiresInjectiveProxies(problem_));
  Timer total;
  MapReduceSimulator sim(options_.num_workers);
  std::optional<LoopbackEngine> fallback;
  CommunicationEngine* engine = Engine(&fallback);

  const std::vector<std::vector<uint32_t>> parts =
      PartitionRows(input, options_.num_partitions, options_.partition,
                    options_.seed, metric_);

  // Round 1: GMM-GEN per partition; keep each kernel's range so the
  // instantiation radius r_T = max_i r_{T_i} is known. Failed partitions are
  // dropped (empty generalized core-set, range 0) and excluded from round 3.
  // A caching engine keys a shipped partition by its content, so the
  // instantiate round's by-ref requests hit the partitions the gen-coreset
  // round already shipped into the worker caches.
  std::vector<GeneralizedCoreset> gens(parts.size());
  std::vector<double> ranges(parts.size(), 0.0);
  RoundOutcome gen_round = sim.RunFallibleRound(
      "gen-coreset", parts.size(),
      [&](const MrTaskContext& ctx, std::function<void()>* commit) -> Status {
        const size_t i = ctx.task;
        if (parts[i].empty()) {
          *commit = [] {};  // empty core-set, range stays 0
          return OkStatus();
        }
        const PointSet in = PartitionInput(ctx, input, parts[i]);
        DIVERSE_RETURN_IF_ERROR(
            ValidateFinitePoints("input partition", "gen-coreset", i, in));
        size_t k_prime = std::min(options_.k_prime, in.size());
        StatusOr<GenCoresetResult> gen_or = engine->GenCoreset(
            MakeEnvelope("gen-coreset", ctx), in, options_.k, k_prime);
        if (!gen_or.ok()) return gen_or.status();
        GeneralizedCoreset gen = std::move(gen_or->gen);
        double range = gen_or->range;
        if (ctx.fault == FaultKind::kEmptyOutput) {
          gen = GeneralizedCoreset();
          range = 0.0;
        }
        if (ctx.fault == FaultKind::kWrongOutput) {
          gen = GarbleGen(gen, ctx.fault_param);
        }
        if (gen.size() == 0) {
          return DataLossError(
              "generalized core-set is empty for a non-empty partition "
              "(round 'gen-coreset', task " +
              std::to_string(i) + ")");
        }
        if (!std::isfinite(range) || range < 0.0) {
          return DataLossError("non-finite kernel range (round 'gen-coreset', "
                               "task " +
                               std::to_string(i) + ")");
        }
        DIVERSE_RETURN_IF_ERROR(ValidateGenEntries(
            "generalized core-set output", "gen-coreset", i, gen));
        *commit = [&gens, &ranges, i, out = std::move(gen), range]() mutable {
          gens[i] = std::move(out);
          ranges[i] = range;
        };
        return OkStatus();
      },
      ExecPolicy(), [&](size_t i) { return parts[i].size(); },
      [&](size_t i) { return gens[i].size(); });
  std::optional<DegradedResult> degraded;
  DIVERSE_RETURN_IF_ERROR(ApplyRoundDegradation(
      "gen-coreset", parts, gen_round, options_.allow_degraded, &degraded));
  std::vector<bool> part_failed(parts.size(), false);
  for (size_t f : gen_round.failed_tasks) part_failed[f] = true;
  double r_t = *std::max_element(ranges.begin(), ranges.end());

  // Round 2: one reducer merges the generalized core-sets and picks the
  // coherent subset T-hat of expanded size k (Fact 2). Single reducer:
  // permanent failure is fatal.
  GeneralizedCoreset selected;
  size_t merged_size = 0;
  for (const GeneralizedCoreset& g : gens) merged_size += g.size();
  RoundOutcome gsolve = sim.RunFallibleRound(
      "gen-solve", 1,
      [&](const MrTaskContext& ctx, std::function<void()>* commit) -> Status {
        GeneralizedCoreset merged = GeneralizedCoreset::Merge(gens);
        if (ctx.fault == FaultKind::kCorruptPartition) {
          merged = GarbleGen(merged, ctx.fault_param);
        }
        DIVERSE_RETURN_IF_ERROR(ValidateGenEntries(
            "merged generalized core-set", "gen-solve", 0, merged));
        const size_t k = std::min(options_.k, merged.ExpandedSize());
        StatusOr<GeneralizedCoreset> sel_or = engine->GenSolve(
            MakeEnvelope("gen-solve", ctx), merged, options_.k);
        if (!sel_or.ok()) return sel_or.status();
        GeneralizedCoreset sel = std::move(*sel_or);
        if (ctx.fault == FaultKind::kEmptyOutput) sel = GeneralizedCoreset();
        if (ctx.fault == FaultKind::kWrongOutput) {
          sel = GarbleGen(sel, ctx.fault_param);
        }
        if (sel.ExpandedSize() != k) {
          return DataLossError(
              "gen-solve selected expanded size " +
              std::to_string(sel.ExpandedSize()) + " of " + std::to_string(k) +
              " requested");
        }
        DIVERSE_RETURN_IF_ERROR(
            ValidateGenEntries("selected subset", "gen-solve", 0, sel));
        *commit = [&selected, out = std::move(sel)]() mutable {
          selected = std::move(out);
        };
        return OkStatus();
      },
      ExecPolicy(), [&](size_t) { return merged_size; },
      [&](size_t) { return selected.size(); });
  if (!gsolve.ok()) return AnnotateRoundFailure("gen-solve", gsolve.first_error);

  // Round 3: each surviving partition instantiates the selected pairs whose
  // kernel point it owns: m_p distinct delegates within r_T of p. Partitions
  // are disjoint, so per-partition instantiations are globally disjoint.
  // Every selected kernel point came from a surviving partition's core-set,
  // so skipping failed partitions still assigns every entry.
  std::vector<GeneralizedCoreset> per_part(parts.size());
  {
    std::vector<bool> assigned(selected.size(), false);
    for (size_t i = 0; i < parts.size(); ++i) {
      if (part_failed[i]) continue;
      for (size_t e = 0; e < selected.size(); ++e) {
        if (assigned[e]) continue;
        const Point& p = selected.entries()[e].point;
        for (uint32_t r : parts[i]) {
          if (RowEquals(input, r, p)) {
            per_part[i].Add(p, selected.entries()[e].multiplicity);
            assigned[e] = true;
            break;
          }
        }
      }
    }
    for (size_t e = 0; e < selected.size(); ++e) DIVERSE_CHECK(assigned[e]);
  }
  std::vector<PointSet> instantiated(parts.size());
  RoundOutcome inst_round = sim.RunFallibleRound(
      "instantiate", parts.size(),
      [&](const MrTaskContext& ctx, std::function<void()>* commit) -> Status {
        const size_t i = ctx.task;
        if (per_part[i].size() == 0) {
          *commit = [] {};
          return OkStatus();
        }
        const PointSet in = PartitionInput(ctx, input, parts[i]);
        DIVERSE_RETURN_IF_ERROR(
            ValidateFinitePoints("input partition", "instantiate", i, in));
        StatusOr<PointSet> inst_or = engine->Instantiate(
            MakeEnvelope("instantiate", ctx), per_part[i], in, r_t);
        if (!inst_or.ok()) return inst_or.status();
        PointSet inst = std::move(*inst_or);
        if (ctx.fault == FaultKind::kEmptyOutput) inst.clear();
        if (ctx.fault == FaultKind::kWrongOutput) {
          GarbleOne(&inst, ctx.fault_param);
        }
        if (inst.size() != per_part[i].ExpandedSize()) {
          return DataLossError(
              "instantiation produced " + std::to_string(inst.size()) +
              " of " + std::to_string(per_part[i].ExpandedSize()) +
              " delegates (round 'instantiate', task " + std::to_string(i) +
              ")");
        }
        DIVERSE_RETURN_IF_ERROR(ValidateFinitePoints(
            "instantiated delegates", "instantiate", i, inst));
        *commit = [&instantiated, i, out = std::move(inst)]() mutable {
          instantiated[i] = std::move(out);
        };
        return OkStatus();
      },
      ExecPolicy(), [&](size_t i) { return parts[i].size(); },
      [&](size_t i) { return instantiated[i].size(); });
  // Losing an instantiation loses selected solution points outright — the
  // result would silently be smaller than k, so this round never degrades.
  if (!inst_round.ok()) {
    return AnnotateRoundFailure("instantiate", inst_round.first_error);
  }

  return Finalize(Concatenate(&instantiated), merged_size, std::move(degraded),
                  sim, total);
}

StatusOr<MrResult> MapReduceDiversity::TryRunRecursive(
    const Dataset& input, size_t local_memory_budget) const {
  DIVERSE_CHECK_GE(local_memory_budget, options_.k_prime);
  Timer total;
  MapReduceSimulator sim(options_.num_workers);
  std::optional<LoopbackEngine> fallback;
  CommunicationEngine* engine = Engine(&fallback);

  // Each level partitions the rows of `*current`: the input itself, then
  // the columnar re-layout of the previous level's aggregate.
  const Dataset* current = &input;
  Dataset compressed;
  PointSet aggregate;
  std::optional<DegradedResult> degraded;
  int level = 0;
  // Compress through core-set rounds until one reducer can hold everything.
  // Degradation applies at every level; the certificate's survival fraction
  // is the product over levels.
  while (current->size() > local_memory_budget) {
    size_t parts_needed =
        (current->size() + local_memory_budget - 1) / local_memory_budget;
    const std::vector<std::vector<uint32_t>> parts =
        PartitionRows(*current, parts_needed, options_.partition,
                      options_.seed + static_cast<uint64_t>(level), metric_);
    std::vector<PointSet> coresets;
    DIVERSE_RETURN_IF_ERROR(CoresetRound(
        &sim, engine, "coreset-l" + std::to_string(level), *current, parts,
        input.size(), &coresets, &degraded));
    aggregate = Concatenate(&coresets);
    // Guard against non-progress (budget too tight for k' per part).
    if (aggregate.size() >= current->size()) {
      return FailedPreconditionError(
          "recursive compression made no progress at level " +
          std::to_string(level) + " (" + std::to_string(aggregate.size()) +
          " of " + std::to_string(current->size()) +
          " points remain); raise the local memory budget");
    }
    compressed = Dataset(aggregate);
    current = &compressed;
    ++level;
  }
  if (level == 0) {
    // The input fits one reducer, whose engine call takes every row.
    for (size_t r = 0; r < input.size(); ++r) {
      aggregate.push_back(input.point(r));
    }
  }

  DIVERSE_ASSIGN_OR_RETURN(PointSet solution,
                           SolveRound(&sim, engine, aggregate));
  return Finalize(std::move(solution), aggregate.size(), std::move(degraded),
                  sim, total);
}

}  // namespace diverse
