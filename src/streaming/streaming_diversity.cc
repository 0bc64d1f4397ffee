#include "streaming/streaming_diversity.h"

#include <algorithm>
#include <limits>

#include "core/sequential.h"
#include "util/check.h"

namespace diverse {
namespace {

// The engine mode of the one-pass algorithm: SMM-EXT (kDelegates) for the
// injective-proxy problems, SMM (kCentersOnly) for the others.
internal_smm::SmmEngine::Mode OnePassMode(DiversityProblem problem) {
  return RequiresInjectiveProxies(problem)
             ? internal_smm::SmmEngine::Mode::kDelegates
             : internal_smm::SmmEngine::Mode::kCentersOnly;
}

}  // namespace

StreamingDiversity::StreamingDiversity(const Metric* metric,
                                       DiversityProblem problem, size_t k,
                                       size_t k_prime)
    : metric_(metric),
      problem_(problem),
      k_(k),
      engine_(metric, k, k_prime, OnePassMode(problem)) {}

void StreamingDiversity::Update(const Point& p) {
  engine_.Update(p);
  peak_memory_ = std::max(peak_memory_, engine_.StoredPoints());
}

void StreamingDiversity::UpdateAll(const Dataset& data) {
  // Runs of rows the hinted center covers change nothing but the count
  // (and so not the peak), so only the row after each run goes to Update.
  Point row;  // reused for every row: Update copies what it keeps
  for (size_t i = 0; i < data.size(); ++i) {
    i += engine_.SkipCoveredRows(data, i);
    if (i < data.size()) Update(row.Assign(data.row(i)));
  }
}

StreamingResult StreamingDiversity::Finalize() {
  StreamingResult result;
  PointSet coreset = engine_.FinalizeCoreset();
  result.coreset_size = coreset.size();
  result.peak_memory_points = peak_memory_;
  result.phases = engine_.phases();

  size_t k = std::min(k_, coreset.size());
  if (k == 0) return result;
  Dataset coreset_data(std::move(coreset));
  std::vector<size_t> picked =
      SolveSequential(problem_, coreset_data, *metric_, k);
  result.solution.reserve(picked.size());
  for (size_t idx : picked) {
    result.solution.push_back(coreset_data.point(idx));
  }
  result.diversity = EvaluateDiversity(problem_, result.solution, *metric_);
  return result;
}

TwoPassStreamingDiversity::TwoPassStreamingDiversity(const Metric* metric,
                                                     DiversityProblem problem,
                                                     size_t k, size_t k_prime)
    : metric_(metric),
      problem_(problem),
      k_(k),
      smm_gen_(metric, k, k_prime) {
  DIVERSE_CHECK(RequiresInjectiveProxies(problem));
}

void TwoPassStreamingDiversity::UpdateFirstPass(const Point& p) {
  DIVERSE_CHECK(!first_pass_done_);
  smm_gen_.Update(p);
  peak_memory_ = std::max(peak_memory_, smm_gen_.engine().StoredPoints());
}

void TwoPassStreamingDiversity::UpdateAllFirstPass(const Dataset& data) {
  Point row;  // reused for every row: UpdateFirstPass copies what it keeps
  for (size_t i = 0; i < data.size(); ++i) {
    UpdateFirstPass(row.Assign(data.row(i)));
  }
}

void TwoPassStreamingDiversity::UpdateAllSecondPass(const Dataset& data) {
  Point row;  // reused for every row: UpdateSecondPass copies what it keeps
  for (size_t i = 0; i < data.size(); ++i) {
    UpdateSecondPass(row.Assign(data.row(i)));
  }
}

void TwoPassStreamingDiversity::EndFirstPass() {
  DIVERSE_CHECK(!first_pass_done_);
  first_pass_done_ = true;
  phases_ = smm_gen_.engine().phases();
  GeneralizedCoreset coreset = smm_gen_.Finalize();
  coreset_size_ = coreset.size();

  size_t k = std::min(k_, coreset.ExpandedSize());
  if (k == 0) return;
  selected_ = SolveSequentialGeneralized(problem_, coreset, *metric_, k);

  // Counts can migrate across merged centers, adding one 2*d_i hop per
  // merge; the geometric threshold growth bounds the total detour by one
  // extra CoverageRadiusBound (see the k' = (64/eps')^D constant of
  // Theorem 9 vs the (32/eps')^D of Theorem 1). Hence delta = 2 * (4 d_l).
  delta_ = 2.0 * smm_gen_.CoverageRadiusBound();
  candidates_.assign(selected_.size(), PointSet{});
}

void TwoPassStreamingDiversity::UpdateSecondPass(const Point& p) {
  DIVERSE_CHECK(first_pass_done_);
  // Assign p to the eligible (within delta) selected entry with the largest
  // unmet need. Each point joins at most one candidate list, so the
  // instantiation's disjointness is automatic.
  size_t best = selected_.size();
  size_t best_need = 0;
  for (size_t j = 0; j < selected_.size(); ++j) {
    size_t have = candidates_[j].size();
    size_t want = selected_.entries()[j].multiplicity;
    if (have >= want) continue;
    size_t need = want - have;
    if (need > best_need &&
        metric_->Distance(p, selected_.entries()[j].point) <= delta_) {
      best = j;
      best_need = need;
    }
  }
  if (best < selected_.size()) candidates_[best].push_back(p);
}

StreamingResult TwoPassStreamingDiversity::Finalize() {
  DIVERSE_CHECK(first_pass_done_);
  StreamingResult result;
  result.coreset_size = coreset_size_;
  result.peak_memory_points = peak_memory_;
  result.phases = phases_;
  for (size_t j = 0; j < selected_.size(); ++j) {
    for (const Point& p : candidates_[j]) result.solution.push_back(p);
  }
  if (!result.solution.empty()) {
    result.diversity = EvaluateDiversity(problem_, result.solution, *metric_);
  }
  return result;
}

}  // namespace diverse
