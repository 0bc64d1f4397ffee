// Figure 5: scalability — running time vs number of processors for several
// dataset sizes (synthetic R^3, remote-edge).
//
// As in the paper, the size s of the aggregate core-set delivered to the
// final reducer is FIXED across parallelism levels, so each of the p
// round-1 reducers builds a core-set of k' = s/p points from n/p points:
// per-reducer work is O(n s / p^2) and total work is O(n s / p). On a
// multi-core host this yields the paper's ~4x time drop per doubling of p
// (work / p^2); on a single core the wall time still drops ~2x per doubling
// (total work / p). The p = 1 data point runs the streaming algorithm with
// k' = s, matching the paper's single-machine setup.
//
// Paper setup: n in {1e8 .. 1.6e9}, p in {1,2,4,8,16}, s = 2048 * 16.
// Default here: n in {125k .. 1M} (--max_n), s = 1024 (--s).

#include <string>
#include <vector>

#include "bench_common.h"
#include "core/metric.h"
#include "data/synthetic.h"
#include "mapreduce/mr_diversity.h"
#include "streaming/streaming_diversity.h"
#include "table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace diverse;
  bench::Flags flags(argc, argv);
  size_t max_n = static_cast<size_t>(flags.GetInt("max_n", 1000000));
  size_t k = static_cast<size_t>(flags.GetInt("k", 64));
  size_t s = static_cast<size_t>(flags.GetInt("s", 1024));

  bench::Banner("Figure 5",
                "Scalability: wall time (s) vs processors p, one series per "
                "dataset size (synthetic R^3,\nremote-edge). Aggregate "
                "core-set size s is fixed, so k' = s/p per reducer; p = 1 "
                "is the\nstreaming algorithm with k' = s.");

  EuclideanMetric metric;
  const DiversityProblem problem = DiversityProblem::kRemoteEdge;
  const std::vector<size_t> procs = {1, 2, 4, 8, 16};
  std::vector<size_t> sizes;
  for (size_t n = max_n / 8; n <= max_n; n *= 2) sizes.push_back(n);

  std::vector<std::string> headers = {"n \\ p"};
  for (size_t p : procs) headers.push_back("p=" + std::to_string(p));
  TablePrinter table(headers);

  for (size_t n : sizes) {
    SphereDatasetOptions opts;
    opts.n = n;
    opts.k = k;
    opts.seed = 5000;
    PointSet pts = GenerateSphereDataset(opts);
    std::vector<std::string> row = {std::to_string(n)};
    for (size_t p : procs) {
      Timer timer;
      if (p == 1) {
        StreamingDiversity sd(&metric, problem, k, s);
        for (const Point& x : pts) sd.Update(x);
        sd.Finalize();
      } else {
        MrOptions o;
        o.k = k;
        o.k_prime = std::max(k, s / p);
        o.num_partitions = p;
        o.num_workers = p;
        MapReduceDiversity mr(&metric, problem, o);
        bench::OrDie(mr.TryRun(Dataset(pts)));
      }
      row.push_back(TablePrinter::Fmt(timer.Seconds(), 2));
    }
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());

  // Paper §7.4 (text): "for a fixed number of processors the time increases
  // linearly with k'". Fixed n and p, sweep k'.
  {
    size_t n = sizes.back();
    SphereDatasetOptions opts;
    opts.n = n;
    opts.k = k;
    opts.seed = 5001;
    PointSet pts = GenerateSphereDataset(opts);
    TablePrinter ktable({"k' per reducer", "time (s)"});
    for (size_t kp : {64u, 128u, 256u, 512u}) {
      MrOptions o;
      o.k = std::min(k, kp);
      o.k_prime = kp;
      o.num_partitions = 8;
      o.num_workers = 8;
      MapReduceDiversity mr(&metric, problem, o);
      Timer timer;
      bench::OrDie(mr.TryRun(Dataset(pts)));
      ktable.AddRow({std::to_string(kp), TablePrinter::Fmt(timer.Seconds(), 2)});
    }
    std::printf("fixed n = %zu, p = 8: time vs k' (expected linear):\n%s\n",
                n, ktable.ToString().c_str());
  }

  std::printf(
      "Paper (Fig. 5): for fixed n, doubling p gives ~4x speedup on a real "
      "cluster\n(per-reducer work O(n s / p^2)); on a single-core host expect "
      "~2x (total work O(n s / p)).\nFor fixed p, time grows linearly in n "
      "and in k'. The streaming point (p = 1) is faster\nthan a 1-processor "
      "MR run would be (cache-friendlier single pass).\n");
  return 0;
}
