// Shared helpers for the per-figure/table benchmark harnesses.
//
// Each bench binary prints the rows/series of one paper experiment. All
// accept `--key=value` flags (sizes, repetitions, seeds) so the scaled-down
// laptop defaults can be raised toward the paper's original sizes on bigger
// machines.

#ifndef DIVERSE_BENCH_BENCH_COMMON_H_
#define DIVERSE_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/diversity.h"
#include "core/metric.h"
#include "core/point.h"
#include "core/sequential.h"
#include "util/status.h"

namespace diverse {
namespace bench {

/// Minimal --key=value flag parser.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      size_t eq = arg.find('=');
      // insert_or_assign with an explicit std::string sidesteps a GCC 12
      // -Wrestrict false positive (PR105651) on map-subscript assignment.
      if (eq == std::string::npos) {
        values_.insert_or_assign(arg.substr(2), std::string("1"));
      } else {
        values_.insert_or_assign(arg.substr(2, eq - 2), arg.substr(eq + 1));
      }
    }
  }

  long long GetInt(const std::string& key, long long def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : std::atoll(it->second.c_str());
  }

  double GetDouble(const std::string& key, double def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : std::atof(it->second.c_str());
  }

  std::string GetString(const std::string& key, const std::string& def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// The points `indices` of `points`, in that order (a core-set or a
/// solution given as row ids).
inline PointSet Gather(const PointSet& points,
                       const std::vector<size_t>& indices) {
  PointSet out;
  out.reserve(indices.size());
  for (size_t i : indices) out.push_back(points[i]);
  return out;
}

/// div(solution) where `solution` indexes into `points`.
inline double SolutionDiversity(DiversityProblem problem,
                                const PointSet& points,
                                const std::vector<size_t>& indices,
                                const Metric& metric) {
  return EvaluateDiversity(problem, Gather(points, indices), metric);
}

/// The value of a run the harness's fault-free configuration cannot fail;
/// exits with the error if it does anyway.
template <typename T>
T OrDie(StatusOr<T> result) {
  if (!result.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*result);
}

/// Prints a header banner so bench outputs are self-describing.
inline void Banner(const char* experiment, const char* description) {
  std::printf("=== %s ===\n%s\n\n", experiment, description);
}

}  // namespace bench
}  // namespace diverse

#endif  // DIVERSE_BENCH_BENCH_COMMON_H_
