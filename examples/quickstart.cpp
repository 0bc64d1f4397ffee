// Quickstart: pick the k most diverse points from a small dataset with the
// sequential algorithms, then do the same at scale with streaming and
// MapReduce.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/diversity.h"
#include "core/metric.h"
#include "core/sequential.h"
#include "data/synthetic.h"
#include "mapreduce/mr_diversity.h"
#include "streaming/streaming_diversity.h"

int main() {
  using namespace diverse;

  // --- 1. Sequential: k diverse points from an in-memory dataset. ---------
  EuclideanMetric metric;
  PointSet points = GenerateUniformCube(/*n=*/1000, /*dim=*/2, /*seed=*/42);
  const size_t k = 5;

  std::vector<size_t> picked =
      SolveSequential(DiversityProblem::kRemoteEdge, points, metric, k);
  PointSet solution;
  for (size_t idx : picked) solution.push_back(points[idx]);
  double div =
      EvaluateDiversity(DiversityProblem::kRemoteEdge, solution, metric);
  std::printf("sequential remote-edge: div = %.4f, points:\n", div);
  for (const Point& p : solution) {
    std::printf("  %s\n", p.ToString().c_str());
  }

  // --- 2. Streaming: one pass, memory independent of stream length. -------
  StreamingDiversity stream(&metric, DiversityProblem::kRemoteEdge, k,
                            /*k_prime=*/4 * k);
  for (const Point& p : points) stream.Update(p);
  StreamingResult sres = stream.Finalize();
  std::printf("streaming remote-edge:  div = %.4f (coreset %zu pts, peak mem %zu pts)\n",
              sres.diversity, sres.coreset_size, sres.peak_memory_points);

  // --- 3. MapReduce: two rounds over 8 simulated reducers. ----------------
  MrOptions opts;
  opts.k = k;
  opts.k_prime = 4 * k;
  opts.num_partitions = 8;
  opts.num_workers = 4;
  MapReduceDiversity mr(&metric, DiversityProblem::kRemoteEdge, opts);
  StatusOr<MrResult> mres = mr.TryRun(Dataset(points));
  if (!mres.ok()) {
    std::fprintf(stderr, "mapreduce failed: %s\n",
                 mres.status().ToString().c_str());
    return 1;
  }
  std::printf("mapreduce remote-edge:  div = %.4f (%zu rounds, |T| = %zu, M_L = %zu pts)\n",
              mres->diversity, mres->rounds, mres->coreset_size,
              mres->max_local_memory_points);

  // All three pipelines solve the same problem; the distributed ones trade a
  // little accuracy (controlled by k') for memory/passes.
  return 0;
}
