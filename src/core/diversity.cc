#include "core/diversity.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "core/mst.h"
#include "core/tsp.h"
#include "util/check.h"
#include "util/rng.h"

namespace diverse {

std::string ProblemName(DiversityProblem problem) {
  switch (problem) {
    case DiversityProblem::kRemoteEdge:
      return "remote-edge";
    case DiversityProblem::kRemoteClique:
      return "remote-clique";
    case DiversityProblem::kRemoteStar:
      return "remote-star";
    case DiversityProblem::kRemoteBipartition:
      return "remote-bipartition";
    case DiversityProblem::kRemoteTree:
      return "remote-tree";
    case DiversityProblem::kRemoteCycle:
      return "remote-cycle";
  }
  return "unknown";
}

std::optional<DiversityProblem> ParseProblem(const std::string& name) {
  for (DiversityProblem p : kAllProblems) {
    if (ProblemName(p) == name) return p;
  }
  return std::nullopt;
}

bool RequiresInjectiveProxies(DiversityProblem problem) {
  switch (problem) {
    case DiversityProblem::kRemoteEdge:
    case DiversityProblem::kRemoteCycle:
      return false;
    case DiversityProblem::kRemoteClique:
    case DiversityProblem::kRemoteStar:
    case DiversityProblem::kRemoteBipartition:
    case DiversityProblem::kRemoteTree:
      return true;
  }
  return true;
}

double SequentialAlpha(DiversityProblem problem) {
  switch (problem) {
    case DiversityProblem::kRemoteEdge:
      return 2.0;  // GMM [Tamir 91 / Ravi et al.]
    case DiversityProblem::kRemoteClique:
      return 2.0;  // matching [Hassin-Rubinstein-Tamir 97]
    case DiversityProblem::kRemoteStar:
      return 2.0;  // matching [Chandra-Halldorsson 01]
    case DiversityProblem::kRemoteBipartition:
      return 3.0;  // matching [Chandra-Halldorsson 01]
    case DiversityProblem::kRemoteTree:
      return 4.0;  // greedy [Halldorsson et al. 99]
    case DiversityProblem::kRemoteCycle:
      return 3.0;  // greedy [Halldorsson et al. 99]
  }
  return 0.0;
}

double DiversityTermCount(DiversityProblem problem, size_t k) {
  double kd = static_cast<double>(k);
  switch (problem) {
    case DiversityProblem::kRemoteEdge:
      return 1.0;
    case DiversityProblem::kRemoteClique:
      return kd * (kd - 1.0) / 2.0;
    case DiversityProblem::kRemoteStar:
    case DiversityProblem::kRemoteTree:
      return kd - 1.0;
    case DiversityProblem::kRemoteBipartition:
      return static_cast<double>(k / 2) * static_cast<double>(k - k / 2);
    case DiversityProblem::kRemoteCycle:
      return kd;
  }
  return 0.0;
}

namespace {

double RemoteEdge(const DistanceMatrix& d) {
  size_t n = d.size();
  if (n < 2) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) best = std::min(best, d.at(i, j));
  }
  return best;
}

double RemoteClique(const DistanceMatrix& d) {
  size_t n = d.size();
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) sum += d.at(i, j);
  }
  return sum;
}

double RemoteStar(const DistanceMatrix& d) {
  size_t n = d.size();
  if (n < 2) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < n; ++c) {
    double s = 0.0;
    for (size_t q = 0; q < n; ++q) s += d.at(c, q);
    best = std::min(best, s);
  }
  return best;
}

// Cut weight of the bipartition encoded by `side` (side[i] == true -> Q).
double CutWeight(const DistanceMatrix& d, const std::vector<bool>& side) {
  double w = 0.0;
  size_t n = d.size();
  for (size_t i = 0; i < n; ++i) {
    if (!side[i]) continue;
    for (size_t j = 0; j < n; ++j) {
      if (!side[j]) w += d.at(i, j);
    }
  }
  return w;
}

}  // namespace

double BipartitionWeightExact(const DistanceMatrix& d) {
  size_t n = d.size();
  DIVERSE_CHECK_LE(n, kBipartitionExactLimit);
  if (n < 2) return 0.0;
  size_t q = n / 2;
  double best = std::numeric_limits<double>::infinity();
  std::vector<bool> side(n, false);
  // Enumerate all subsets of size q via bitmasks. Fixing element 0's side
  // would halve the work only for even n; plain enumeration keeps it simple.
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    if (static_cast<size_t>(__builtin_popcountll(mask)) != q) continue;
    for (size_t i = 0; i < n; ++i) side[i] = (mask >> i) & 1;
    best = std::min(best, CutWeight(d, side));
  }
  return best;
}

double BipartitionWeightHeuristic(const DistanceMatrix& d) {
  size_t n = d.size();
  if (n < 2) return 0.0;
  size_t q = n / 2;
  Rng rng(0xB197A27ULL ^ n);  // fixed seed: deterministic evaluation
  double best = std::numeric_limits<double>::infinity();
  constexpr int kRestarts = 8;
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  for (int r = 0; r < kRestarts; ++r) {
    // Random balanced start.
    for (size_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
    }
    std::vector<bool> side(n, false);
    for (size_t i = 0; i < q; ++i) side[perm[i]] = true;
    // Swap improvement: exchange one member of Q with one of S\Q while the
    // cut weight decreases.
    double cur = CutWeight(d, side);
    bool improved = true;
    while (improved) {
      improved = false;
      for (size_t a = 0; a < n && !improved; ++a) {
        if (!side[a]) continue;
        for (size_t b = 0; b < n; ++b) {
          if (side[b]) continue;
          // Delta of swapping a (in Q) with b (out): recompute incident cut
          // contributions. For every other vertex v: pairs (a,v) and (b,v)
          // flip their cut membership except the (a,b) pair itself.
          double delta = 0.0;
          for (size_t v = 0; v < n; ++v) {
            if (v == a || v == b) continue;
            if (side[v]) {
              delta += d.at(a, v) - d.at(b, v);
            } else {
              delta += d.at(b, v) - d.at(a, v);
            }
          }
          if (delta < -1e-12) {
            side[a] = false;
            side[b] = true;
            cur += delta;
            improved = true;
            break;
          }
        }
      }
    }
    best = std::min(best, cur);
  }
  return best;
}

double EvaluateDiversity(DiversityProblem problem, const DistanceMatrix& d) {
  switch (problem) {
    case DiversityProblem::kRemoteEdge:
      return RemoteEdge(d);
    case DiversityProblem::kRemoteClique:
      return RemoteClique(d);
    case DiversityProblem::kRemoteStar:
      return RemoteStar(d);
    case DiversityProblem::kRemoteBipartition:
      return d.size() <= kBipartitionExactLimit ? BipartitionWeightExact(d)
                                                : BipartitionWeightHeuristic(d);
    case DiversityProblem::kRemoteTree:
      return MstWeight(d);
    case DiversityProblem::kRemoteCycle:
      return TspWeightAuto(d);
  }
  return 0.0;
}

double EvaluateDiversity(DiversityProblem problem,
                         std::span<const Point> solution,
                         const Metric& metric) {
  return EvaluateDiversity(problem, DistanceMatrix(solution, metric));
}

double EvaluateDiversitySubset(DiversityProblem problem, const Dataset& data,
                               std::span<const size_t> rows,
                               const Metric& metric) {
  const std::vector<uint32_t> ids(rows.begin(), rows.end());
  Dataset subset;
  subset.AssignGatherColumnar(data, ids);
  return EvaluateDiversity(problem, DistanceMatrix(subset, metric));
}

}  // namespace diverse
