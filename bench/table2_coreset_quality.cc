// Table 2 (empirical counterpart): approximation quality of our composable
// core-sets for all six diversity measures, compared with the theoretical
// factors of previous general-metric-space constructions [Indyk et al. 14;
// Aghamolaei et al. 15].
//
// The paper's Table 2 is theoretical (our core-sets: 1 + eps on bounded
// doubling dimension; previous: 3 / 6+eps / 12 / 18 / 4 / 3). Here we
// *measure* the core-set approximation on planted-sphere data: ratio =
// div_k(best reference solution) / div_k(solution from the core-set). The
// measured ratios should sit near 1, far below the general-metric-space
// guarantees.

#include <vector>

#include "bench_common.h"
#include "core/coreset.h"
#include "core/metric.h"
#include "core/sequential.h"
#include "data/synthetic.h"
#include "mapreduce/partitioner.h"
#include "table.h"

int main(int argc, char** argv) {
  using namespace diverse;
  bench::Flags flags(argc, argv);
  size_t n = static_cast<size_t>(flags.GetInt("n", 20000));
  size_t k = static_cast<size_t>(flags.GetInt("k", 8));
  size_t parts = static_cast<size_t>(flags.GetInt("parts", 4));
  int runs = static_cast<int>(flags.GetInt("runs", 5));

  bench::Banner("Table 2 (empirical)",
                "Measured composable core-set approximation ratio per "
                "diversity measure (k' = 4k,\nplanted-sphere R^3 data) vs "
                "the theoretical factors of general-metric-space\n"
                "constructions from prior work.");

  EuclideanMetric metric;
  const double prior[] = {3.0, 6.0, 12.0, 18.0, 4.0, 3.0};  // Table 2, prior work

  TablePrinter table({"problem", "measured ratio (ours)",
                      "prior work factor (theory)"});
  size_t pi = 0;
  for (DiversityProblem problem : kAllProblems) {
    double ratio_sum = 0.0;
    for (int run = 0; run < runs; ++run) {
      SphereDatasetOptions opts;
      opts.n = n;
      opts.k = k;
      opts.seed = 6000 + static_cast<uint64_t>(run);
      PointSet pts = GenerateSphereDataset(opts);

      // Reference: the sequential algorithm on the full input.
      std::vector<size_t> ref_idx =
          SolveSequential(problem, Dataset(pts), metric, k);
      double ref = bench::SolutionDiversity(problem, pts, ref_idx, metric);

      // Composable core-set: per-partition construction, then solve on the
      // union.
      auto partitions = PartitionPoints(pts, parts,
                                        PartitionStrategy::kRandom,
                                        100 + static_cast<uint64_t>(run));
      PointSet united;
      for (const PointSet& part : partitions) {
        const Dataset data(part);
        PointSet c = bench::Gather(
            part, RequiresInjectiveProxies(problem)
                      ? GmmExtCoreset(data, metric, 4 * k, k - 1)
                      : GmmCoreset(data, metric, 4 * k));
        united.insert(united.end(), c.begin(), c.end());
      }
      std::vector<size_t> core_idx =
          SolveSequential(problem, Dataset(united), metric, k);
      double core =
          bench::SolutionDiversity(problem, united, core_idx, metric);

      ratio_sum += std::max(ref, core) / core;
    }
    table.AddRow({ProblemName(problem),
                  TablePrinter::Fmt(ratio_sum / runs, 3),
                  TablePrinter::Fmt(prior[pi], 0)});
    ++pi;
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Paper (Table 2): our construction guarantees 1 + eps for all "
              "six measures on bounded\ndoubling dimension; prior "
              "general-metric constructions guarantee 3 .. 18. Measured\n"
              "ratios near 1.0 confirm the (1+eps) behaviour.\n");
  return 0;
}
