#include "checks.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "data/synthetic.h"

namespace perfbench {

using diverse::DiversityProblem;
using diverse::Metric;
using diverse::Point;
using diverse::PointSet;
using diverse::SolveResult;

namespace {

template <typename T>
uint64_t HashBytes(const std::vector<T>& v, uint64_t h) {
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (size_t i = 0; i < v.size() * sizeof(T); ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

// FNV-1a over a point's representation and stored coordinates.
uint64_t HashPoint(const Point& p) {
  uint64_t h = 1469598103934665603ull ^ (p.dim() * 2 + (p.is_sparse() ? 1 : 0));
  if (p.is_sparse()) {
    h = HashBytes(p.sparse_indices(), h);
    return HashBytes(p.sparse_values(), h);
  }
  return HashBytes(p.dense_values(), h);
}

}  // namespace

std::vector<uint64_t> SortedRowHashes(std::span<const Point> input) {
  std::vector<uint64_t> hashes;
  hashes.reserve(input.size());
  for (const Point& p : input) hashes.push_back(HashPoint(p));
  std::sort(hashes.begin(), hashes.end());
  return hashes;
}

std::string CheckAnswer(const SolveResult& result, size_t k,
                        DiversityProblem problem, const Metric& metric,
                        const std::vector<uint64_t>& row_hashes) {
  const PointSet& sol = result.solution;
  if (sol.size() != k) {
    return "solution has " + std::to_string(sol.size()) + " points, want " +
           std::to_string(k);
  }
  for (size_t i = 0; i < sol.size(); ++i) {
    for (size_t j = i + 1; j < sol.size(); ++j) {
      if (sol[i] == sol[j]) {
        return "solution points " + std::to_string(i) + " and " +
               std::to_string(j) + " are the same point";
      }
    }
  }
  for (size_t i = 0; i < sol.size(); ++i) {
    if (!std::binary_search(row_hashes.begin(), row_hashes.end(),
                            HashPoint(sol[i]))) {
      return "solution point " + std::to_string(i) + " is not an input row";
    }
  }
  const double div = diverse::EvaluateDiversity(problem, sol, metric);
  if (div != result.diversity) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "reported diversity %.17g != re-evaluated %.17g",
                  result.diversity, div);
    return buf;
  }
  return "";
}

std::string CheckSameAnswer(const SolveResult& got, const SolveResult& want) {
  if (got.solution.size() != want.solution.size()) {
    return "solution size " + std::to_string(got.solution.size()) +
           " != reference " + std::to_string(want.solution.size());
  }
  for (size_t i = 0; i < got.solution.size(); ++i) {
    if (!(got.solution[i] == want.solution[i])) {
      return "solution point " + std::to_string(i) + " differs from reference";
    }
  }
  if (got.diversity != want.diversity) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "diversity %.17g != reference %.17g",
                  got.diversity, want.diversity);
    return buf;
  }
  return "";
}

int RunCheckSelfTest() {
  diverse::SphereDatasetOptions gen;
  gen.n = 2000;
  gen.k = 6;
  gen.seed = 7;
  const PointSet input = diverse::GenerateSphereDataset(gen);
  diverse::EuclideanMetric metric;
  diverse::SolveOptions opt;
  opt.problem = DiversityProblem::kRemoteEdge;
  opt.backend = diverse::Backend::kMapReduce;
  opt.k = 6;
  opt.num_partitions = 4;
  opt.num_workers = 2;
  diverse::StatusOr<SolveResult> solved = diverse::TrySolve(input, metric, opt);
  if (!solved.ok()) {
    std::printf("self-test: solve failed: %s\n",
                solved.status().ToString().c_str());
    return 1;
  }
  const SolveResult good = *solved;
  const std::vector<uint64_t> hashes = SortedRowHashes(input);

  int failures = 0;
  auto expect = [&](const char* label, const SolveResult& r, bool want_ok) {
    std::string why = CheckAnswer(r, opt.k, opt.problem, metric, hashes);
    if (why.empty()) why = CheckSameAnswer(r, good);
    const bool ok = why.empty();
    const bool pass = ok == want_ok;
    if (!pass) ++failures;
    std::printf("self-test %-22s %s (%s)\n", label, pass ? "PASS" : "FAIL",
                ok ? "accepted" : why.c_str());
  };

  expect("true answer", good, true);

  SolveResult moved = good;
  std::vector<float> coords = moved.solution[0].dense_values();
  coords[0] += 1e-3f;
  moved.solution[0] = Point::Dense(coords);
  expect("perturbed coordinate", moved, false);

  SolveResult duplicated = good;
  duplicated.solution[1] = duplicated.solution[0];
  expect("duplicated point", duplicated, false);

  SolveResult dropped = good;
  dropped.solution.pop_back();
  expect("dropped point", dropped, false);

  SolveResult misreported = good;
  misreported.diversity *= 1.0 + 1e-12;
  expect("misreported diversity", misreported, false);

  SolveResult reordered = good;
  std::swap(reordered.solution[0], reordered.solution[1]);
  expect("reordered solution", reordered, false);

  std::printf("self-test: %s\n", failures == 0 ? "all cases behaved"
                                               : "some cases misbehaved");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
