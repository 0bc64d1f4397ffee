// Table 4: our MapReduce algorithm (CPPU) vs the state-of-the-art AFZ
// baseline on remote-clique: approximation ratio and running time for
// k in {4, 6, 8}, 16 reducers, 2-D Euclidean planted-sphere data,
// CPPU at k' = 128.
//
// Paper setup: 4M points (AFZ "prohibitively slow for higher dimensions and
// bigger datasets"). Default here: 200k (--n to change). Paper reading:
// CPPU achieves slightly better ratios while being >= 3 orders of magnitude
// faster (807s..4625s vs ~1.2s). Our AFZ reimplementation shows the same
// shape (superlinear local search vs one GMM pass); the exact speedup factor
// depends on dataset size and the local-search convergence cap.

#include <vector>

#include "bench_common.h"
#include "core/metric.h"
#include "data/synthetic.h"
#include "mapreduce/afz.h"
#include "mapreduce/mr_diversity.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace diverse;
  bench::Flags flags(argc, argv);
  size_t n = static_cast<size_t>(flags.GetInt("n", 400000));
  size_t reducers = static_cast<size_t>(flags.GetInt("reducers", 16));
  size_t workers = static_cast<size_t>(flags.GetInt("workers", 8));

  bench::Banner("Table 4",
                "CPPU (k' = 128) vs AFZ on remote-clique, 2-D planted-sphere "
                "data, 16 reducers.\nRatio = best div observed for that k / "
                "achieved div.");

  EuclideanMetric metric;
  const DiversityProblem problem = DiversityProblem::kRemoteClique;
  const std::vector<size_t> ks = {4, 6, 8};
  // Two dataset sizes so the *scaling* of the gap is visible: AFZ's local
  // search is superlinear in n while CPPU's GMM pass is linear (and its
  // round-2 cost is independent of n).
  const std::vector<size_t> sizes = {n / 2, n};

  TablePrinter table({"n", "k", "AFZ ratio", "CPPU ratio", "AFZ time (s)",
                      "CPPU time (s)", "speedup"});
  for (size_t size : sizes) {
    for (size_t k : ks) {
      SphereDatasetOptions dopts;
      dopts.n = size;
      dopts.k = k;
      dopts.dim = 2;
      dopts.seed = 4000 + k;
      PointSet pts = GenerateSphereDataset(dopts);

      AfzOptions aopts;
      aopts.k = k;
      aopts.num_partitions = reducers;
      aopts.num_workers = workers;
      MrResult afz = RunAfz(pts, metric, problem, aopts);

      MrOptions copts;
      copts.k = k;
      copts.k_prime = 128;
      copts.num_partitions = reducers;
      copts.num_workers = workers;
      MapReduceDiversity cppu(&metric, problem, copts);
      MrResult cppu_r = bench::OrDie(cppu.TryRun(Dataset(pts)));

      double best = std::max(afz.diversity, cppu_r.diversity);
      table.AddRow({TablePrinter::Fmt(static_cast<long long>(size)),
                    TablePrinter::Fmt(static_cast<long long>(k)),
                    TablePrinter::Fmt(best / afz.diversity, 3),
                    TablePrinter::Fmt(best / cppu_r.diversity, 3),
                    TablePrinter::Fmt(afz.total_seconds, 2),
                    TablePrinter::Fmt(cppu_r.total_seconds, 2),
                    TablePrinter::Fmt(
                        afz.total_seconds / cppu_r.total_seconds, 1) +
                        "x"});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Paper (Table 4): CPPU ratio <= AFZ ratio at every k, and CPPU "
              "is >= 3 orders of magnitude\nfaster at the paper's 4M-point "
              "scale. The speedup grows with n: AFZ's restart-scan\nlocal "
              "search is superlinear in n, CPPU's GMM pass is linear and its "
              "final round does not\ndepend on n at all.\n");
  return 0;
}
