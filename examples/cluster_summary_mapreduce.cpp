// Dataset summarization on a (simulated) cluster — the paper's headline use
// case: "diversity maximization provides a succinct summary of a dataset
// while preserving the diversity of the data".
//
// A 2-round MapReduce run summarizes a large point cloud into k
// representatives; we then compare the deterministic 2-round, randomized
// 2-round (Theorem 7) and 3-round generalized (Theorem 10) variants on the
// same input, showing the memory/round trade-offs of Table 3.

#include <cstdio>

#include "core/dataset.h"
#include "core/diversity.h"
#include "core/metric.h"
#include "data/synthetic.h"
#include "mapreduce/mr_diversity.h"

int main() {
  using namespace diverse;

  // 100k points in R^3: k planted far-away points on the unit sphere plus a
  // uniform bulk (the paper's most challenging synthetic distribution).
  // Note on sizing: remote-clique's final sequential step (greedy matching)
  // is quadratic in the aggregate core-set size l*k'*k, so k and k' are the
  // knobs that dominate end-to-end cost, not n.
  SphereDatasetOptions data;
  data.n = 100000;
  data.k = 32;
  data.seed = 2024;
  const Dataset input(GenerateSphereDataset(data));

  EuclideanMetric metric;
  MrOptions opts;
  // k > log2(n) so Theorem 7's randomized delegate cap actually bites.
  opts.k = 32;
  opts.k_prime = 32;
  opts.num_partitions = 16;
  opts.num_workers = 8;
  opts.partition = PartitionStrategy::kRandom;

  DiversityProblem problem = DiversityProblem::kRemoteClique;
  MapReduceDiversity mr(&metric, problem, opts);

  std::printf("%-28s %8s %10s %10s %10s %8s\n", "variant", "rounds",
              "|T| pts", "M_L pts", "shuffle", "div");
  auto report = [](const char* name, const StatusOr<MrResult>& r) {
    if (!r.ok()) {
      std::printf("%-28s failed: %s\n", name, r.status().ToString().c_str());
      return;
    }
    std::printf("%-28s %8zu %10zu %10zu %10zu %8.2f\n", name, r->rounds,
                r->coreset_size, r->max_local_memory_points, r->shuffle_points,
                r->diversity);
  };

  report("2-round deterministic", mr.TryRun(input));

  MrOptions ropts = opts;
  ropts.randomized_delegate_cap = true;
  MapReduceDiversity mr_rand(&metric, problem, ropts);
  report("2-round randomized (Thm 7)", mr_rand.TryRun(input));

  report("3-round generalized (Thm 10)", mr.TryRunGeneralized(input));

  // Multi-round recursion (Theorem 8) under a tight local-memory budget.
  report("recursive (Thm 8, ML=4096)",
         mr.TryRunRecursive(input, /*local_memory_budget=*/4096));
  return 0;
}
