// Kernel microbenchmarks (google-benchmark): distance evaluations, GMM
// steps, SMM updates, diversity evaluators, and scalar-vs-batched/tiled
// kernel comparisons. These track the constants behind the throughput
// numbers of Figure 3 and measure (rather than assert) the speedup of the
// columnar Dataset + batched/tiled kernel paths over the scalar
// virtual-dispatch loops.
//
// Besides the usual console output, the binary writes a machine-readable
// BENCH_micro.json (override the path with the BENCH_MICRO_JSON environment
// variable): a {"meta": ..., "entries": [...]} document whose meta block
// records the run configuration (git sha, hardware thread count, AVX2
// dispatch state, fp32 screening mode) so trajectories are comparable
// across commits and machines, and whose entries each carry
// {op, n, dim, threads, metric, ns_per_op, rescue_pct, pruned_pct,
// exact_evals, screened_evals}. Benchmarks report n / dim / threads /
// rescue_pct / pruned_pct / exact_evals / screened_evals through counters of
// those names and the metric through the label.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/coreset.h"
#include "core/cover_tree.h"
#include "core/dataset.h"
#include "core/distance_matrix.h"
#include "core/diversity.h"
#include "core/gmm.h"
#include "core/kcenter.h"
#include "core/metric.h"
#include "core/screen.h"
#include "core/sequential.h"
#include "core/vector_kernels.h"
#include "data/sparse_text.h"
#include "data/synthetic.h"
#include "mapreduce/mr_diversity.h"
#include "streaming/smm.h"
#include "util/thread_pool.h"

namespace diverse {
namespace {

void BM_EuclideanDistanceDense3(benchmark::State& state) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(2, 3, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.Distance(pts[0], pts[1]));
  }
  state.counters["n"] = 2;
  state.counters["dim"] = 3;
  state.SetLabel("euclidean");
}
BENCHMARK(BM_EuclideanDistanceDense3);

void BM_CosineDistanceSparse(benchmark::State& state) {
  CosineMetric m;
  SparseTextOptions opts;
  opts.n = 2;
  opts.max_terms = static_cast<size_t>(state.range(0));
  opts.min_terms = opts.max_terms / 2;
  opts.seed = 1;
  PointSet docs = GenerateSparseTextDataset(opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.Distance(docs[0], docs[1]));
  }
  state.counters["n"] = 2;
  state.counters["dim"] = static_cast<double>(opts.max_terms);
  state.SetLabel("cosine");
}
BENCHMARK(BM_CosineDistanceSparse)->Arg(20)->Arg(60)->Arg(120);

// One 120-term sparse query against 4096 sparse rows through the one-query
// batch path (the SMM update's exact sweep), single-threaded. Setup checks
// every distance against scalar Distance bit for bit.
void BM_CosineToManySparse(benchmark::State& state) {
  CosineMetric m;
  size_t n = 4096;
  SetGlobalThreadPoolSize(1);
  SparseTextOptions opts;
  opts.n = n;
  opts.min_terms = 60;
  opts.max_terms = 120;
  opts.seed = 17;
  Dataset data(GenerateSparseTextDataset(opts));
  opts.n = 1;
  opts.min_terms = 120;
  opts.seed = 18;
  Point query = GenerateSparseTextDataset(opts)[0];
  std::vector<double> out(n);
  m.DistanceToMany(query, data, 0, out);
  for (size_t i = 0; i < n; ++i) {
    if (out[i] != m.Distance(query, data.point(i))) {
      state.SkipWithError("DistanceToMany diverged from scalar Distance");
      return;
    }
  }
  for (auto _ : state) {
    m.DistanceToMany(query, data, 0, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.counters["n"] = static_cast<double>(n);
  state.counters["dim"] = static_cast<double>(opts.vocab_size);
  state.counters["threads"] = 1;
  state.SetLabel("cosine");
}
BENCHMARK(BM_CosineToManySparse);

void BM_Gmm(benchmark::State& state) {
  EuclideanMetric m;
  size_t n = static_cast<size_t>(state.range(0));
  size_t k = static_cast<size_t>(state.range(1));
  PointSet pts = GenerateUniformCube(n, 3, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Gmm(pts, m, k));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.counters["n"] = static_cast<double>(n);
  state.counters["dim"] = 3;
  state.SetLabel("euclidean");
}
BENCHMARK(BM_Gmm)->Args({10000, 32})->Args({10000, 128})->Args({50000, 32});

void BM_GmmExtCoreset(benchmark::State& state) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(10000, 3, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GmmExtCoreset(pts, m, 64, 15));
  }
  state.counters["n"] = 10000;
  state.counters["dim"] = 3;
  state.SetLabel("euclidean");
}
BENCHMARK(BM_GmmExtCoreset);

void BM_SmmUpdate(benchmark::State& state) {
  EuclideanMetric m;
  size_t k_prime = static_cast<size_t>(state.range(0));
  PointSet pts = GenerateUniformCube(100000, 3, 4);
  Smm smm(&m, k_prime / 2, k_prime);
  size_t i = 0;
  for (auto _ : state) {
    smm.Update(pts[i++ % pts.size()]);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["n"] = static_cast<double>(k_prime);
  state.counters["dim"] = 3;
  state.SetLabel("euclidean");
}
BENCHMARK(BM_SmmUpdate)->Arg(32)->Arg(128)->Arg(512);

void BM_EvaluateDiversity(benchmark::State& state) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(64, 3, 5);
  DistanceMatrix d(pts, m);
  auto problem = static_cast<DiversityProblem>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluateDiversity(problem, d));
  }
  state.SetLabel(ProblemName(problem));
}
BENCHMARK(BM_EvaluateDiversity)
    ->Arg(static_cast<int>(DiversityProblem::kRemoteEdge))
    ->Arg(static_cast<int>(DiversityProblem::kRemoteClique))
    ->Arg(static_cast<int>(DiversityProblem::kRemoteStar))
    ->Arg(static_cast<int>(DiversityProblem::kRemoteBipartition))
    ->Arg(static_cast<int>(DiversityProblem::kRemoteTree))
    ->Arg(static_cast<int>(DiversityProblem::kRemoteCycle));

void BM_GreedyMatching(benchmark::State& state) {
  EuclideanMetric m;
  size_t n = static_cast<size_t>(state.range(0));
  PointSet pts = GenerateUniformCube(n, 3, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyMatchingOnPoints(pts, m, 8));
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["dim"] = 3;
  state.SetLabel("euclidean");
}
BENCHMARK(BM_GreedyMatching)->Arg(500)->Arg(2000);

// The remote-clique final round at core-set scale: greedy matching over
// 16384 dim-16 points, k = 24, with the pair scan on a pool of 1 or 4
// threads (first arg). The second arg picks the input: 0 = Gaussian blobs,
// where the cluster-pair bounds skip most of the scan, 1 = a uniform cube,
// where they skip nothing and the clustering is pure overhead. Setup checks
// the selection against the exhaustive scan (indexing off, 1 thread)
// and SkipWithError()s on a mismatch, which drops the entry from
// the JSON. exact_evals and screened_evals count the bounded scan's
// evaluations (clustering included), which the chunked scan keeps
// identical at every pool size.
void BM_GreedyMatchingDataset(benchmark::State& state) {
  constexpr size_t kMatchN = 16384;
  constexpr size_t kMatchK = 24;
  const size_t threads = static_cast<size_t>(state.range(0));
  const bool cube = state.range(1) != 0;
  EuclideanMetric m;
  Dataset data(cube ? GenerateUniformCube(kMatchN, 16, /*seed=*/17)
                    : GenerateGaussianBlobs(kMatchN, 64, 16, 0.02,
                                            /*seed=*/17));
  SetGlobalThreadPoolSize(1);
  const std::vector<size_t> reference = GreedyMatchingOnDataset(
      data, EuclideanMetric({.indexing = IndexPolicy::kOff}), kMatchK);
  SetGlobalThreadPoolSize(threads);
  CountingMetric counting(&m);
  if (GreedyMatchingOnDataset(data, counting, kMatchK) != reference) {
    state.SkipWithError("bounded matching diverged from the exhaustive scan");
    SetGlobalThreadPoolSize(1);
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyMatchingOnDataset(data, m, kMatchK));
  }
  state.counters["n"] = static_cast<double>(kMatchN);
  state.counters["dim"] = 16;
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["exact_evals"] = static_cast<double>(counting.exact_evals());
  state.counters["screened_evals"] =
      static_cast<double>(counting.screened_evals());
  state.SetLabel(cube ? "euclidean uniform cube" : "euclidean blobs");
  SetGlobalThreadPoolSize(1);
}
BENCHMARK(BM_GreedyMatchingDataset)
    ->Args({1, 0})
    ->Args({4, 0})
    ->Args({1, 1})
    ->Args({4, 1})
    ->Unit(benchmark::kMillisecond);

// --- Scalar vs batched kernels -------------------------------------------
// One query against n points of the given dimension: the scalar loop pays a
// virtual Distance call and two heap-pointer dereferences per evaluation;
// the batched sweep runs devirtualized over contiguous rows.

void BM_DistanceSweepScalar(benchmark::State& state) {
  EuclideanMetric m;
  size_t n = static_cast<size_t>(state.range(0));
  size_t dim = static_cast<size_t>(state.range(1));
  PointSet pts = GenerateUniformCube(n, dim, 7);
  const Metric& metric = m;  // force virtual dispatch, as the old hot loops
  for (auto _ : state) {
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) acc += metric.Distance(pts[i], pts[0]);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.counters["n"] = static_cast<double>(n);
  state.counters["dim"] = static_cast<double>(dim);
  state.SetLabel("euclidean");
}
BENCHMARK(BM_DistanceSweepScalar)->Args({50000, 3})->Args({50000, 64});

void BM_DistanceSweepBatched(benchmark::State& state) {
  EuclideanMetric m;
  size_t n = static_cast<size_t>(state.range(0));
  size_t dim = static_cast<size_t>(state.range(1));
  // Pin to one worker so this measures devirtualization + layout, not
  // parallelism (BM_GmmBatched50k covers the thread axis).
  SetGlobalThreadPoolSize(1);
  Dataset data(GenerateUniformCube(n, dim, 7));
  std::vector<double> out(n);
  for (auto _ : state) {
    m.DistanceToMany(data.point(0), data, 0, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.counters["n"] = static_cast<double>(n);
  state.counters["dim"] = static_cast<double>(dim);
  state.SetLabel("euclidean");
}
BENCHMARK(BM_DistanceSweepBatched)->Args({50000, 3})->Args({50000, 64});

// --- Scalar vs batched (and 1-vs-N-thread) GMM ---------------------------
// The acceptance workload of the Dataset refactor: GMM on 50k dense points.

void BM_GmmScalar50k(benchmark::State& state) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(50000, 3, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GmmScalar(pts, m, 32));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 50000);
  state.counters["n"] = 50000;
  state.counters["dim"] = 3;
  state.SetLabel("euclidean");
}
BENCHMARK(BM_GmmScalar50k)->Unit(benchmark::kMillisecond);

void BM_GmmBatched50k(benchmark::State& state) {
  EuclideanMetric m;
  size_t threads = static_cast<size_t>(state.range(0));
  SetGlobalThreadPoolSize(threads);
  Dataset data(GenerateUniformCube(50000, 3, 8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Gmm(data, m, 32));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 50000);
  state.counters["n"] = 50000;
  state.counters["dim"] = 3;
  state.counters["threads"] = static_cast<double>(threads);
  state.SetLabel("euclidean");
  SetGlobalThreadPoolSize(1);
}
BENCHMARK(BM_GmmBatched50k)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// A user-defined metric: it overrides only Distance, so every batched call
// runs the Metric base-class fallbacks, which read rows as Points.
class UserEuclidean final : public Metric {
 public:
  double Distance(const Point& a, const Point& b) const override {
    return std::sqrt(a.SquaredEuclideanDistanceTo(b));
  }
  std::string Name() const override { return "user-euclidean"; }
};

// GMM under a user-defined metric: the DistanceToMany fallback.
void BM_UserMetricGmm(benchmark::State& state) {
  UserEuclidean m;
  SetGlobalThreadPoolSize(1);
  Dataset data(GenerateUniformCube(20000, 16, 8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Gmm(data, m, 32));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 20000);
  state.counters["n"] = 20000;
  state.counters["dim"] = 16;
  state.SetLabel("user-euclidean");
}
BENCHMARK(BM_UserMetricGmm)->Unit(benchmark::kMillisecond);

// One 64 x 4096 tile under a user-defined metric: the DistanceTile
// fallback.
void BM_UserMetricTile(benchmark::State& state) {
  UserEuclidean m;
  const size_t n = 4096;
  const size_t q = 64;
  Dataset data(GenerateUniformCube(n, 16, 10));
  std::vector<double> out(q * n);
  for (auto _ : state) {
    m.DistanceTile(data, 0, q, data, 0, n, out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(q * n));
  state.counters["n"] = static_cast<double>(n);
  state.counters["dim"] = 16;
  state.SetLabel("user-euclidean");
}
BENCHMARK(BM_UserMetricTile);

// --- Per-center sweeps vs blocked multi-center tiles ---------------------
// The acceptance workload of the tile layer: dense k-center assignment of
// k=64 centers over n=50k points, single-threaded. The per-center variant
// is the PR 1 path (one exact ScreenedRelaxArgFarthest sweep per center, n
// rows streamed k times); the tiled variant loads each row block once for
// all centers (RelaxTilesAndArgFarthest).

constexpr size_t kAssignN = 50000;
constexpr size_t kAssignK = 64;
constexpr size_t kAssignDim = 3;

void BM_KCenterAssignPerCenter(benchmark::State& state) {
  EuclideanMetric m({.screening = false});
  SetGlobalThreadPoolSize(1);
  Dataset data =
      Dataset(GenerateUniformCube(kAssignN, kAssignDim, 9));
  std::vector<size_t> centers = Gmm(data, m, kAssignK).selected;
  std::vector<double> dist;
  std::vector<size_t> assignment(kAssignN);
  for (auto _ : state) {
    dist.assign(kAssignN, std::numeric_limits<double>::infinity());
    size_t farthest = 0;
    for (size_t c = 0; c < centers.size(); ++c) {
      farthest = ScreenedRelaxArgFarthest(m, data, centers[c], data, dist,
                                          assignment, c);
    }
    benchmark::DoNotOptimize(farthest);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kAssignN * kAssignK));
  state.counters["n"] = static_cast<double>(kAssignN);
  state.counters["dim"] = static_cast<double>(kAssignDim);
  state.SetLabel("euclidean");
}
BENCHMARK(BM_KCenterAssignPerCenter)->Unit(benchmark::kMillisecond);

void BM_KCenterAssignTiled(benchmark::State& state) {
  EuclideanMetric m;
  SetGlobalThreadPoolSize(1);
  Dataset data =
      Dataset(GenerateUniformCube(kAssignN, kAssignDim, 9));
  Dataset center_rows;
  for (size_t c : Gmm(data, m, kAssignK).selected) {
    center_rows.Append(data.point(c));
  }
  std::vector<double> dist;
  std::vector<size_t> assignment(kAssignN);
  for (auto _ : state) {
    dist.assign(kAssignN, std::numeric_limits<double>::infinity());
    size_t farthest = RelaxTilesAndArgFarthest(
        m, center_rows, 0, center_rows.size(), 0, data, dist, assignment);
    benchmark::DoNotOptimize(farthest);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kAssignN * kAssignK));
  state.counters["n"] = static_cast<double>(kAssignN);
  state.counters["dim"] = static_cast<double>(kAssignDim);
  state.SetLabel("euclidean");
}
BENCHMARK(BM_KCenterAssignTiled)->Unit(benchmark::kMillisecond);

// One Q x R distance tile against the equivalent per-query DistanceToMany
// sweeps, dense rows.
void BM_DistanceTile(benchmark::State& state) {
  EuclideanMetric m;
  size_t n = 4096;
  size_t q = static_cast<size_t>(state.range(0));
  size_t dim = static_cast<size_t>(state.range(1));
  SetGlobalThreadPoolSize(1);
  Dataset data(GenerateUniformCube(n, dim, 10));
  std::vector<double> out(q * n);
  for (auto _ : state) {
    m.DistanceTile(data, 0, q, data, 0, n, out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(q * n));
  state.counters["n"] = static_cast<double>(n);
  state.counters["dim"] = static_cast<double>(dim);
  state.SetLabel("euclidean");
}
BENCHMARK(BM_DistanceTile)->Args({16, 3})->Args({16, 64})->Args({64, 16});

void BM_DistanceTilePerQuery(benchmark::State& state) {
  EuclideanMetric m;
  size_t n = 4096;
  size_t q = static_cast<size_t>(state.range(0));
  size_t dim = static_cast<size_t>(state.range(1));
  SetGlobalThreadPoolSize(1);
  Dataset data(GenerateUniformCube(n, dim, 10));
  std::vector<double> out(n);
  for (auto _ : state) {
    for (size_t i = 0; i < q; ++i) {
      m.DistanceToMany(data.point(i), data, 0, out);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(q * n));
  state.counters["n"] = static_cast<double>(n);
  state.counters["dim"] = static_cast<double>(dim);
  state.SetLabel("euclidean");
}
BENCHMARK(BM_DistanceTilePerQuery)
    ->Args({16, 3})
    ->Args({16, 64})
    ->Args({64, 16});

// Full pairwise matrix build: tiled columnar path vs scalar per-pair loop.
void BM_DistanceMatrixTiled(benchmark::State& state) {
  EuclideanMetric m;
  size_t n = static_cast<size_t>(state.range(0));
  SetGlobalThreadPoolSize(1);
  Dataset data(GenerateUniformCube(n, 3, 11));
  for (auto _ : state) {
    DistanceMatrix d(data, m);
    benchmark::DoNotOptimize(d.at(0, n - 1));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * (n - 1) / 2));
  state.counters["n"] = static_cast<double>(n);
  state.counters["dim"] = 3;
  state.SetLabel("euclidean");
}
BENCHMARK(BM_DistanceMatrixTiled)->Arg(2000);

void BM_DistanceMatrixScalar(benchmark::State& state) {
  EuclideanMetric m;
  size_t n = static_cast<size_t>(state.range(0));
  PointSet pts = GenerateUniformCube(n, 3, 11);
  const Metric& metric = m;  // virtual dispatch, as the pre-tile build
  for (auto _ : state) {
    DistanceMatrix d(n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        d.set(i, j, metric.Distance(pts[i], pts[j]));
      }
    }
    benchmark::DoNotOptimize(d.at(0, n - 1));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * (n - 1) / 2));
  state.counters["n"] = static_cast<double>(n);
  state.counters["dim"] = 3;
  state.SetLabel("euclidean");
}
BENCHMARK(BM_DistanceMatrixScalar)->Arg(2000);

// --- Sparse tile engine vs per-pair scalar merge -------------------------
// The acceptance workload of the sparse tile layer (PR 3): a 64-query block
// of CSR documents against every row of the corpus, single-threaded. The
// per-pair variants replicate the pre-engine DistanceTile fallback exactly
// (devirtualized scalar merge per pair over the columnar views); the tiled
// variants decode the query block once and stream each CSR row a single
// time against all lanes. Configurations: the paper-sized vocabulary of
// 5000 with ~100-term documents, and the heavy 1k-nnz documents the
// blocked intersection targets.

Dataset SparseBenchCorpus(size_t n, uint32_t vocab, size_t max_terms,
                          uint64_t seed) {
  SparseTextOptions opts;
  opts.n = n;
  opts.vocab_size = vocab;
  opts.min_terms = max_terms / 2;
  opts.max_terms = max_terms;
  opts.seed = seed;
  return Dataset(GenerateSparseTextDataset(opts));
}

constexpr size_t kSparseTileQueries = 64;

template <typename MetricT>
void SparseTileBench(benchmark::State& state, const char* label,
                     uint32_t vocab) {
  MetricT m;
  size_t n = static_cast<size_t>(state.range(0));
  size_t nnz = static_cast<size_t>(state.range(1));
  SetGlobalThreadPoolSize(1);
  Dataset data = SparseBenchCorpus(n, vocab, nnz, 12);
  std::vector<double> out(kSparseTileQueries * n);
  for (auto _ : state) {
    m.DistanceTile(data, 0, kSparseTileQueries, data, 0, n, out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kSparseTileQueries * n));
  state.counters["n"] = static_cast<double>(n);
  state.counters["dim"] = static_cast<double>(vocab);
  state.SetLabel(label);
}

template <typename PairKernel>
void SparseTilePerPairBench(benchmark::State& state, const char* label,
                            uint32_t vocab, const PairKernel& pair) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t nnz = static_cast<size_t>(state.range(1));
  SetGlobalThreadPoolSize(1);
  Dataset data = SparseBenchCorpus(n, vocab, nnz, 12);
  std::vector<double> out(kSparseTileQueries * n);
  for (auto _ : state) {
    for (size_t q = 0; q < kSparseTileQueries; ++q) {
      kernels::VecView qv = data.row(q);
      for (size_t r = 0; r < n; ++r) {
        out[q * n + r] = pair(data.row(r), qv);
      }
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kSparseTileQueries * n));
  state.counters["n"] = static_cast<double>(n);
  state.counters["dim"] = static_cast<double>(vocab);
  state.SetLabel(label);
}

void BM_SparseTileCosine(benchmark::State& state) {
  SparseTileBench<CosineMetric>(state, "cosine", 5000);
}
BENCHMARK(BM_SparseTileCosine)->Args({4096, 120})->Args({2048, 1000});

void BM_SparseTileCosinePerPair(benchmark::State& state) {
  SparseTilePerPairBench(
      state, "cosine", 5000,
      [](const kernels::VecView& a, const kernels::VecView& b) {
        return kernels::AngularCosine(a, b);
      });
}
BENCHMARK(BM_SparseTileCosinePerPair)->Args({4096, 120})->Args({2048, 1000});

void BM_SparseTileJaccard(benchmark::State& state) {
  SparseTileBench<JaccardMetric>(state, "jaccard", 5000);
}
BENCHMARK(BM_SparseTileJaccard)->Args({4096, 120});

void BM_SparseTileJaccardPerPair(benchmark::State& state) {
  SparseTilePerPairBench(
      state, "jaccard", 5000,
      [](const kernels::VecView& a, const kernels::VecView& b) {
        return kernels::SupportJaccard(a, b);
      });
}
BENCHMARK(BM_SparseTileJaccardPerPair)->Args({4096, 120});

// Euclidean exercises the union-walk engine at two support layouts: the
// overlapping vocabulary of 500 (block union far below the summed lane
// supports) and the wide vocabulary of 5000 (nearly disjoint lanes — the
// regime the profitability gate polices).
void BM_SparseTileEuclidean(benchmark::State& state) {
  SparseTileBench<EuclideanMetric>(state, "euclidean", 500);
}
BENCHMARK(BM_SparseTileEuclidean)->Args({4096, 120});

void BM_SparseTileEuclideanPerPair(benchmark::State& state) {
  SparseTilePerPairBench(
      state, "euclidean", 500,
      [](const kernels::VecView& a, const kernels::VecView& b) {
        return kernels::Euclidean(a, b);
      });
}
BENCHMARK(BM_SparseTileEuclideanPerPair)->Args({4096, 120});

void BM_SparseTileEuclideanWideVocab(benchmark::State& state) {
  SparseTileBench<EuclideanMetric>(state, "euclidean", 5000);
}
BENCHMARK(BM_SparseTileEuclideanWideVocab)->Args({4096, 120});

void BM_SparseTileEuclideanWideVocabPerPair(benchmark::State& state) {
  SparseTilePerPairBench(
      state, "euclidean", 5000,
      [](const kernels::VecView& a, const kernels::VecView& b) {
        return kernels::Euclidean(a, b);
      });
}
BENCHMARK(BM_SparseTileEuclideanWideVocabPerPair)->Args({4096, 120});

// --- Screened (fp32 screen-then-certify) argmax sweeps -------------------
// The acceptance workload of the mixed-precision engine: the k-center
// assignment argmax of k=64 centers over n=50k rows, screened
// (ScreenedRelaxTilesAndArgFarthest: fp32 tiles + certified-band exact
// rescues) against the PR 2 exact tile path on the same inputs. Setup
// verifies bit-identity of dist / assignment / argmax between the two paths
// (SkipWithError drops the entry from BENCH_micro.json on mismatch, which
// the CI smoke job treats as a failure) and reports the rescue rate —
// exact re-evaluations as a percentage of screened evaluations — through
// the rescue_pct counter.

constexpr size_t kScreenN = 50000;
constexpr size_t kScreenK = 64;

struct ScreenedSweepSetup {
  Dataset data;
  Dataset center_rows;
  std::vector<double> dist;
  std::vector<size_t> assignment;

  // The screened sweep under test: the fused
  // ScreenedRelaxTilesAndArgFarthest or, when `unfused`, its
  // materialize-then-collect form. Single-threaded the screened sweep is
  // one range, so one UnfusedScreenedRelaxTile call over all rows plus the
  // argmax scan is exactly the unfused sweep.
  size_t Sweep(const Metric& metric, bool unfused, std::vector<double>& d,
               std::vector<size_t>& a) const {
    if (!unfused) {
      return ScreenedRelaxTilesAndArgFarthest(
          metric, center_rows, 0, center_rows.size(), 0, data, d, a);
    }
    ScreenSideStats qs = SideStatsOf(center_rows);
    ScreenSideStats ds = SideStatsOf(data);
    UnfusedScreenedRelaxTile(metric, center_rows, 0, center_rows.size(), 0,
                             data, 0, data.size(),
                             metric.ScreenErrorBound(qs, ds, data.dim()), d,
                             a);
    size_t farthest = 0;
    for (size_t i = 1; i < d.size(); ++i) {
      if (d[i] > d[farthest]) farthest = i;
    }
    return farthest;
  }

  // Returns false (after SkipWithError) if screened != exact.
  bool VerifyAndReportRescue(benchmark::State& state, const Metric& metric,
                             bool unfused = false) {
    std::vector<double> exact_dist(data.size(),
                                   std::numeric_limits<double>::infinity());
    std::vector<size_t> exact_assign(data.size(), 0);
    size_t exact_far = RelaxTilesAndArgFarthest(
        metric, center_rows, 0, center_rows.size(), 0, data, exact_dist,
        exact_assign);
    CountingMetric counting(&metric);
    std::vector<double> sdist(data.size(),
                              std::numeric_limits<double>::infinity());
    std::vector<size_t> sassign(data.size(), 0);
    size_t far = Sweep(counting, unfused, sdist, sassign);
    if (far != exact_far || sdist != exact_dist || sassign != exact_assign) {
      state.SkipWithError("screened sweep diverged from exact sweep");
      return false;
    }
    state.counters["rescue_pct"] =
        counting.screened_evals() == 0
            ? 0.0
            : 100.0 * static_cast<double>(counting.exact_evals()) /
                  static_cast<double>(counting.screened_evals());
    return true;
  }
};

ScreenedSweepSetup MakeDenseScreenedSweep(size_t dim) {
  ScreenedSweepSetup s;
  s.data = Dataset(GenerateUniformCube(kScreenN, dim, 13));
  EuclideanMetric m;
  for (size_t c : Gmm(s.data, m, kScreenK).selected) {
    s.center_rows.Append(s.data.point(c));
  }
  s.assignment.resize(kScreenN);
  return s;
}

void BM_ScreenedSweepDense(benchmark::State& state) {
  EuclideanMetric m;
  size_t dim = static_cast<size_t>(state.range(0));
  SetGlobalThreadPoolSize(1);
  ScreenedSweepSetup s = MakeDenseScreenedSweep(dim);
  if (!s.VerifyAndReportRescue(state, m)) return;
  for (auto _ : state) {
    s.dist.assign(kScreenN, std::numeric_limits<double>::infinity());
    size_t farthest = ScreenedRelaxTilesAndArgFarthest(
        m, s.center_rows, 0, s.center_rows.size(), 0, s.data, s.dist,
        s.assignment);
    benchmark::DoNotOptimize(farthest);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kScreenN * kScreenK));
  state.counters["n"] = static_cast<double>(kScreenN);
  state.counters["dim"] = static_cast<double>(dim);
  state.counters["threads"] = 1;
  state.SetLabel("euclidean");
}
BENCHMARK(BM_ScreenedSweepDense)->Arg(3)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// The PR 2 exact tile argmax on the identical inputs — the denominator of
// the screened speedup.
void BM_ScreenedSweepDenseExact(benchmark::State& state) {
  EuclideanMetric m;
  size_t dim = static_cast<size_t>(state.range(0));
  SetGlobalThreadPoolSize(1);
  ScreenedSweepSetup s = MakeDenseScreenedSweep(dim);
  for (auto _ : state) {
    s.dist.assign(kScreenN, std::numeric_limits<double>::infinity());
    size_t farthest =
        RelaxTilesAndArgFarthest(m, s.center_rows, 0, s.center_rows.size(), 0,
                                 s.data, s.dist, s.assignment);
    benchmark::DoNotOptimize(farthest);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kScreenN * kScreenK));
  state.counters["n"] = static_cast<double>(kScreenN);
  state.counters["dim"] = static_cast<double>(dim);
  state.counters["threads"] = 1;
  state.SetLabel("euclidean");
}
BENCHMARK(BM_ScreenedSweepDenseExact)->Arg(3)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// Dense angular sweeps exercise the fp32 dot lanes plus the certified
// polynomial acos (the exact path pays a libm acos per pair).
ScreenedSweepSetup MakeDenseCosineScreenedSweep(size_t dim) {
  ScreenedSweepSetup s;
  s.data = Dataset(GenerateUniformCube(kScreenN, dim, 15));
  CosineMetric m;
  for (size_t c : Gmm(s.data, m, kScreenK).selected) {
    s.center_rows.Append(s.data.point(c));
  }
  s.assignment.resize(kScreenN);
  return s;
}

void BM_ScreenedSweepDenseCosine(benchmark::State& state) {
  CosineMetric m;
  size_t dim = static_cast<size_t>(state.range(0));
  SetGlobalThreadPoolSize(1);
  ScreenedSweepSetup s = MakeDenseCosineScreenedSweep(dim);
  if (!s.VerifyAndReportRescue(state, m)) return;
  for (auto _ : state) {
    s.dist.assign(kScreenN, std::numeric_limits<double>::infinity());
    size_t farthest = ScreenedRelaxTilesAndArgFarthest(
        m, s.center_rows, 0, s.center_rows.size(), 0, s.data, s.dist,
        s.assignment);
    benchmark::DoNotOptimize(farthest);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kScreenN * kScreenK));
  state.counters["n"] = static_cast<double>(kScreenN);
  state.counters["dim"] = static_cast<double>(dim);
  state.counters["threads"] = 1;
  state.SetLabel("cosine");
}
BENCHMARK(BM_ScreenedSweepDenseCosine)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_ScreenedSweepDenseCosineExact(benchmark::State& state) {
  CosineMetric m;
  size_t dim = static_cast<size_t>(state.range(0));
  SetGlobalThreadPoolSize(1);
  ScreenedSweepSetup s = MakeDenseCosineScreenedSweep(dim);
  for (auto _ : state) {
    s.dist.assign(kScreenN, std::numeric_limits<double>::infinity());
    size_t farthest =
        RelaxTilesAndArgFarthest(m, s.center_rows, 0, s.center_rows.size(), 0,
                                 s.data, s.dist, s.assignment);
    benchmark::DoNotOptimize(farthest);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kScreenN * kScreenK));
  state.counters["n"] = static_cast<double>(kScreenN);
  state.counters["dim"] = static_cast<double>(dim);
  state.counters["threads"] = 1;
  state.SetLabel("cosine");
}
BENCHMARK(BM_ScreenedSweepDenseCosineExact)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// Sparse screened sweeps run the fp32 union-walk engine (Euclidean; the
// angular sparse tile is gated unprofitable — see
// CosineMetric::ScreeningProfitableFor).
ScreenedSweepSetup MakeSparseScreenedSweep(size_t n) {
  ScreenedSweepSetup s;
  SparseTextOptions opts;
  opts.n = n;
  opts.vocab_size = 5000;
  opts.min_terms = 60;
  opts.max_terms = 120;
  opts.seed = 14;
  s.data = Dataset(GenerateSparseTextDataset(opts));
  EuclideanMetric m;
  for (size_t c : Gmm(s.data, m, kScreenK).selected) {
    s.center_rows.Append(s.data.point(c));
  }
  s.assignment.resize(n);
  return s;
}

void BM_ScreenedSweepSparseEuclidean(benchmark::State& state) {
  EuclideanMetric m;
  size_t n = static_cast<size_t>(state.range(0));
  SetGlobalThreadPoolSize(1);
  ScreenedSweepSetup s = MakeSparseScreenedSweep(n);
  if (!s.VerifyAndReportRescue(state, m)) return;
  for (auto _ : state) {
    s.dist.assign(n, std::numeric_limits<double>::infinity());
    size_t farthest = ScreenedRelaxTilesAndArgFarthest(
        m, s.center_rows, 0, s.center_rows.size(), 0, s.data, s.dist,
        s.assignment);
    benchmark::DoNotOptimize(farthest);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * kScreenK));
  state.counters["n"] = static_cast<double>(n);
  state.counters["dim"] = 5000;
  state.counters["threads"] = 1;
  state.SetLabel("euclidean");
}
BENCHMARK(BM_ScreenedSweepSparseEuclidean)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_ScreenedSweepSparseEuclideanExact(benchmark::State& state) {
  EuclideanMetric m;
  size_t n = static_cast<size_t>(state.range(0));
  SetGlobalThreadPoolSize(1);
  ScreenedSweepSetup s = MakeSparseScreenedSweep(n);
  for (auto _ : state) {
    s.dist.assign(n, std::numeric_limits<double>::infinity());
    size_t farthest =
        RelaxTilesAndArgFarthest(m, s.center_rows, 0, s.center_rows.size(), 0,
                                 s.data, s.dist, s.assignment);
    benchmark::DoNotOptimize(farthest);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * kScreenK));
  state.counters["n"] = static_cast<double>(n);
  state.counters["dim"] = 5000;
  state.counters["threads"] = 1;
  state.SetLabel("euclidean");
}
BENCHMARK(BM_ScreenedSweepSparseEuclideanExact)->Arg(4096)
    ->Unit(benchmark::kMillisecond);


void BM_FusedScreenRelaxDense(benchmark::State& state) {
  EuclideanMetric m;
  size_t dim = static_cast<size_t>(state.range(0));
  SetGlobalThreadPoolSize(1);
  ScreenedSweepSetup s = MakeDenseScreenedSweep(dim);
  if (!s.VerifyAndReportRescue(state, m)) return;
  for (auto _ : state) {
    s.dist.assign(kScreenN, std::numeric_limits<double>::infinity());
    size_t farthest = ScreenedRelaxTilesAndArgFarthest(
        m, s.center_rows, 0, s.center_rows.size(), 0, s.data, s.dist,
        s.assignment);
    benchmark::DoNotOptimize(farthest);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kScreenN * kScreenK));
  state.counters["n"] = static_cast<double>(kScreenN);
  state.counters["dim"] = static_cast<double>(dim);
  state.counters["threads"] = 1;
  state.SetLabel("euclidean");
}
BENCHMARK(BM_FusedScreenRelaxDense)->Arg(3)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_FusedScreenRelaxDenseUnfused(benchmark::State& state) {
  EuclideanMetric m;
  size_t dim = static_cast<size_t>(state.range(0));
  SetGlobalThreadPoolSize(1);
  ScreenedSweepSetup s = MakeDenseScreenedSweep(dim);
  if (!s.VerifyAndReportRescue(state, m, /*unfused=*/true)) return;
  for (auto _ : state) {
    s.dist.assign(kScreenN, std::numeric_limits<double>::infinity());
    size_t farthest = s.Sweep(m, /*unfused=*/true, s.dist, s.assignment);
    benchmark::DoNotOptimize(farthest);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kScreenN * kScreenK));
  state.counters["n"] = static_cast<double>(kScreenN);
  state.counters["dim"] = static_cast<double>(dim);
  state.counters["threads"] = 1;
  state.SetLabel("euclidean/unfused");
}
BENCHMARK(BM_FusedScreenRelaxDenseUnfused)->Arg(3)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// The fused SMM "argmin + threshold" update sweep at dim 3 — below the old
// >=8-coords-per-row gate, so the pre-fusion engine ran this exact. Arg(1)
// screens (fused sweep), Arg(0) is the exact baseline.
void BM_FusedScreenSmmUpdate(benchmark::State& state) {
  bool screening = state.range(0) != 0;
  EuclideanMetric m({.screening = screening});
  SetGlobalThreadPoolSize(1);
  PointSet pts = GenerateUniformCube(100000, 3, 4);
  Smm smm(&m, 64, 128);
  size_t i = 0;
  for (auto _ : state) {
    smm.Update(pts[i++ % pts.size()]);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["n"] = 128;
  state.counters["dim"] = 3;
  state.counters["threads"] = 1;
  state.SetLabel(screening ? "euclidean/screened" : "euclidean/exact");
}
BENCHMARK(BM_FusedScreenSmmUpdate)->Arg(1)->Arg(0);

// Forwards Distance to CosineMetric and keeps every other Metric member's
// base-class fallback: the scalar reference for the sparse SMM sweep.
class ScalarCosineMetric final : public Metric {
 public:
  double Distance(const Point& a, const Point& b) const override {
    return cosine_.Distance(a, b);
  }
  std::string Name() const override { return "scalar-cosine"; }

 private:
  CosineMetric cosine_;
};

// SMM updates over a sparse text stream under cosine (vocab 5000, k'=128),
// single-threaded: the stream-text-cosine request's inner loop. Setup
// checks that a 3000-document prefix yields the same core-set as the
// scalar fallbacks.
void BM_SmmUpdateSparseCosine(benchmark::State& state) {
  CosineMetric m;
  SetGlobalThreadPoolSize(1);
  SparseTextOptions opts;
  opts.n = 20000;
  opts.seed = 19;
  PointSet pts = GenerateSparseTextDataset(opts);
  {
    ScalarCosineMetric scalar;
    Smm fast(&m, 32, 128);
    Smm ref(&scalar, 32, 128);
    for (size_t i = 0; i < 3000; ++i) {
      fast.Update(pts[i]);
      ref.Update(pts[i]);
    }
    if (fast.Finalize() != ref.Finalize()) {
      state.SkipWithError("SMM diverged from the scalar-Distance reference");
      return;
    }
  }
  Smm smm(&m, 32, 128);
  size_t i = 0;
  for (auto _ : state) {
    smm.Update(pts[i++ % pts.size()]);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["n"] = 128;
  state.counters["dim"] = static_cast<double>(opts.vocab_size);
  state.counters["threads"] = 1;
  state.SetLabel("cosine");
}
BENCHMARK(BM_SmmUpdateSparseCosine);

// The cosine-space angular screen on an all-sparse corpus: the skip path
// pays one multiply-compare per lane off the blocked CSR dot engine — no
// arccos — which is what finally lets sparse cosine screen profitably
// (the pre-fusion gate kept it on the exact path).
ScreenedSweepSetup MakeSparseCosineScreenedSweep(size_t n) {
  ScreenedSweepSetup s;
  SparseTextOptions opts;
  opts.n = n;
  opts.vocab_size = 5000;
  opts.min_terms = 60;
  opts.max_terms = 120;
  opts.seed = 16;
  s.data = Dataset(GenerateSparseTextDataset(opts));
  CosineMetric m;
  for (size_t c : Gmm(s.data, m, kScreenK).selected) {
    s.center_rows.Append(s.data.point(c));
  }
  s.assignment.resize(n);
  return s;
}

void BM_FusedScreenSparseCosine(benchmark::State& state) {
  CosineMetric m;
  size_t n = static_cast<size_t>(state.range(0));
  SetGlobalThreadPoolSize(1);
  ScreenedSweepSetup s = MakeSparseCosineScreenedSweep(n);
  if (!s.VerifyAndReportRescue(state, m)) return;
  for (auto _ : state) {
    s.dist.assign(n, std::numeric_limits<double>::infinity());
    size_t farthest = ScreenedRelaxTilesAndArgFarthest(
        m, s.center_rows, 0, s.center_rows.size(), 0, s.data, s.dist,
        s.assignment);
    benchmark::DoNotOptimize(farthest);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * kScreenK));
  state.counters["n"] = static_cast<double>(n);
  state.counters["dim"] = 5000;
  state.counters["threads"] = 1;
  state.SetLabel("cosine");
}
BENCHMARK(BM_FusedScreenSparseCosine)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_FusedScreenSparseCosineExact(benchmark::State& state) {
  CosineMetric m;
  size_t n = static_cast<size_t>(state.range(0));
  SetGlobalThreadPoolSize(1);
  ScreenedSweepSetup s = MakeSparseCosineScreenedSweep(n);
  for (auto _ : state) {
    s.dist.assign(n, std::numeric_limits<double>::infinity());
    size_t farthest =
        RelaxTilesAndArgFarthest(m, s.center_rows, 0, s.center_rows.size(), 0,
                                 s.data, s.dist, s.assignment);
    benchmark::DoNotOptimize(farthest);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * kScreenK));
  state.counters["n"] = static_cast<double>(n);
  state.counters["dim"] = 5000;
  state.counters["threads"] = 1;
  state.SetLabel("cosine");
}
BENCHMARK(BM_FusedScreenSparseCosineExact)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// Screened GMM end to end at dim 16 (single-query sweeps below ~dim 8 are
// gated back to the exact path — too little per-row work to amortize the
// screen; dim 3 therefore ties by construction).
void BM_ScreenedGmm50k(benchmark::State& state) {
  bool screening = state.range(0) != 0;
  EuclideanMetric m({.screening = screening});
  SetGlobalThreadPoolSize(1);
  Dataset data(GenerateUniformCube(50000, 16, 8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Gmm(data, m, 32));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 50000);
  state.counters["n"] = 50000;
  state.counters["dim"] = 16;
  state.counters["threads"] = 1;
  state.SetLabel(screening ? "euclidean/screened" : "euclidean/exact");
}
BENCHMARK(BM_ScreenedGmm50k)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// ParallelForRanges dispatch overhead: a near-empty body over a mid-size
// index space, so the arena's no-allocation dispatch dominates the timing.
void BM_ParallelForRangesDispatch(benchmark::State& state) {
  size_t threads = static_cast<size_t>(state.range(0));
  SetGlobalThreadPoolSize(threads);
  std::vector<double> sink(16384, 1.0);
  for (auto _ : state) {
    GlobalThreadPool().ParallelForRanges(
        sink.size(), 256, [&](size_t lo, size_t hi) {
          double s = 0.0;
          for (size_t i = lo; i < hi; ++i) s += sink[i];
          benchmark::DoNotOptimize(s);
        });
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["n"] = static_cast<double>(sink.size());
  state.counters["threads"] = static_cast<double>(threads);
  SetGlobalThreadPoolSize(1);
}
BENCHMARK(BM_ParallelForRangesDispatch)->Arg(2)->Arg(4);

// --- Cover-tree metric index (third screening tier) ----------------------
// Clustered corpus in the regime the index targets: 8 well-separated blobs
// at dim 16 with small spread, so the profitability probe sees low doubling
// dimension and gates the index ON (setup SkipWithErrors if it ever gates
// off — the acceptance criterion). The uniform dim-32 corpus is the
// complement: the probe must gate OFF and the gated Gmm() must ride within
// a few percent of the pinned flat path (the probe is the only overhead).

Dataset MakeClusteredCorpus(size_t n) {
  return Dataset(GenerateGaussianBlobs(n, 8, 16, 0.02, 17));
}

void BM_CoverTreeBuild(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  SetGlobalThreadPoolSize(1);
  EuclideanMetric m;
  Dataset data = MakeClusteredCorpus(n);
  for (auto _ : state) {
    CoverTree tree = CoverTree::Build(data, m);
    benchmark::DoNotOptimize(tree.nodes().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.counters["n"] = static_cast<double>(n);
  state.counters["dim"] = 16;
  state.counters["threads"] = 1;
  state.SetLabel("euclidean");
}
BENCHMARK(BM_CoverTreeBuild)->Arg(20000)->Arg(200000)
    ->Unit(benchmark::kMillisecond);

// End-to-end gated GMM on the clustered corpus: probe + build + lazy-greedy
// traversal per call (the honest cost an API caller pays). Setup verifies
// the gate fires and the indexed result is bit-identical to the flat
// screened sweep, and reports the node-prune rate through pruned_pct.
void BM_LazyGreedyGmmClustered(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t k = static_cast<size_t>(state.range(1));
  SetGlobalThreadPoolSize(1);
  EuclideanMetric m;
  Dataset data = MakeClusteredCorpus(n);
  if (!IndexProfitable(data, m, k)) {
    state.SkipWithError("index gated off on the clustered corpus");
    return;
  }
  GmmResult flat =
      Gmm(data, EuclideanMetric({.indexing = IndexPolicy::kOff}), k);
  CoverTree tree = CoverTree::Build(data, m);
  CoverTreeQueryStats stats;
  GmmResult indexed = LazyGreedyGmm(data, tree, m, k, 0, &stats);
  if (indexed.selected != flat.selected || indexed.range != flat.range ||
      indexed.assignment != flat.assignment ||
      indexed.distance_to_selected != flat.distance_to_selected) {
    state.SkipWithError("indexed GMM diverged from flat screened GMM");
    return;
  }
  for (auto _ : state) {
    GmmResult r = Gmm(data, m, k);
    benchmark::DoNotOptimize(r.range);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * k));
  state.counters["n"] = static_cast<double>(n);
  state.counters["dim"] = 16;
  state.counters["threads"] = 1;
  state.counters["pruned_pct"] =
      100.0 * static_cast<double>(stats.pruned_pairs) /
      static_cast<double>(stats.pruned_pairs + stats.applied_pairs);
  state.SetLabel("euclidean");
}
BENCHMARK(BM_LazyGreedyGmmClustered)->Args({20000, 64})->Args({200000, 256})
    ->Unit(benchmark::kMillisecond);

// The flat screened baseline on the identical corpus and k (indexing pinned
// off) — the pair of entries is the measured speedup.
void BM_LazyGreedyGmmClusteredFlat(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t k = static_cast<size_t>(state.range(1));
  SetGlobalThreadPoolSize(1);
  EuclideanMetric m({.indexing = IndexPolicy::kOff});
  Dataset data = MakeClusteredCorpus(n);
  for (auto _ : state) {
    GmmResult r = Gmm(data, m, k);
    benchmark::DoNotOptimize(r.range);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * k));
  state.counters["n"] = static_cast<double>(n);
  state.counters["dim"] = 16;
  state.counters["threads"] = 1;
  state.SetLabel("euclidean");
}
BENCHMARK(BM_LazyGreedyGmmClusteredFlat)->Args({20000, 64})
    ->Args({200000, 256})->Unit(benchmark::kMillisecond);

// Uniform high-dimensional corpus: the probe gates OFF (setup verifies) and
// Gmm() pays only the probe before falling back — Arg(1) measures the gated
// call, Arg(0) the flat path with indexing pinned off. Their ratio is the
// gated-off regression the acceptance bound caps at 5%.
void BM_LazyGreedyGmmUniformGated(benchmark::State& state) {
  bool gated = state.range(0) != 0;
  SetGlobalThreadPoolSize(1);
  EuclideanMetric m(gated ? KernelPolicy{}
                          : KernelPolicy{.indexing = IndexPolicy::kOff});
  Dataset data(GenerateUniformCube(20000, 32, 19));
  if (IndexProfitable(data, EuclideanMetric(), 64)) {
    state.SkipWithError("index gated on for the uniform corpus");
    return;
  }
  for (auto _ : state) {
    GmmResult r = Gmm(data, m, 64);
    benchmark::DoNotOptimize(r.range);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(20000 * 64));
  state.counters["n"] = 20000;
  state.counters["dim"] = 32;
  state.counters["threads"] = 1;
  state.SetLabel(gated ? "euclidean/gated-off" : "euclidean/flat");
}
BENCHMARK(BM_LazyGreedyGmmUniformGated)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond);

// Fault-tolerant executor overhead. The 2-round MR driver now runs every
// round through RunFallibleRound (per-attempt bookkeeping, commit closures,
// injector probes) even when no injector is configured; the acceptance
// bound caps the fault-free overhead at 2% of end-to-end driver time.
//   Arg(0): fault-free — the number CI tracks.
//   Arg(1): a 4-fault schedule (3 crashes + 1 corrupt partition) on 16
//           partitions — the recovery cost when faults DO fire, for
//           context (not bounded).
void BM_MrFaultRecovery(benchmark::State& state) {
  const bool faulty = state.range(0) != 0;
  SetGlobalThreadPoolSize(4);
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(20000, 8, /*seed=*/23);
  FaultInjector faults;
  if (faulty) {
    faults.Add({"coreset", 2, 0, FaultKind::kCrash, 0});
    faults.Add({"coreset", 7, 0, FaultKind::kCrash, 0});
    faults.Add({"coreset", 11, 0, FaultKind::kCrash, 0});
    faults.Add({"coreset", 5, 0, FaultKind::kCorruptPartition, 9});
  }
  MrOptions o;
  o.k = 16;
  o.k_prime = 64;
  o.num_partitions = 16;
  o.num_workers = 4;
  o.seed = 23;
  if (faulty) o.faults = &faults;
  MapReduceDiversity driver(&m, DiversityProblem::kRemoteEdge, o);
  for (auto _ : state) {
    StatusOr<MrResult> r = driver.TryRun(Dataset(pts));
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->diversity);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pts.size()));
  state.counters["n"] = static_cast<double>(pts.size());
  state.counters["dim"] = 8;
  state.counters["threads"] = 4;
  state.SetLabel(faulty ? "euclidean/faulty" : "euclidean/fault-free");
}
BENCHMARK(BM_MrFaultRecovery)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace diverse

namespace {

// Console reporter that also collects one {op, n, dim, metric, ns_per_op,
// rescue_pct} record per iteration run and writes them — under a meta block
// describing the run configuration — as BENCH_micro.json.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  struct Entry {
    std::string op;
    double n = 0.0;
    double dim = 0.0;
    double threads = 0.0;
    std::string metric;
    double ns_per_op = 0.0;
    double rescue_pct = -1.0;  // < 0: benchmark did not screen
    double pruned_pct = -1.0;  // < 0: benchmark did not index
    double exact_evals = -1.0;  // < 0: benchmark did not count
    double screened_evals = -1.0;
  };

  // google-benchmark < 1.8 reports failures via Run::error_occurred; 1.8
  // replaced it with Run::skipped. Probe for whichever member exists so the
  // reporter compiles against both.
  template <typename R>
  static bool RunFailedOrSkipped(const R& run) {
    if constexpr (requires { run.error_occurred; }) {
      if (run.error_occurred) return true;
    }
    if constexpr (requires { run.skipped; }) {
      if (static_cast<int>(run.skipped) != 0) return true;
    }
    return false;
  }

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || RunFailedOrSkipped(run)) {
        continue;
      }
      Entry e;
      e.op = run.benchmark_name();
      auto n_it = run.counters.find("n");
      if (n_it != run.counters.end()) e.n = n_it->second.value;
      auto dim_it = run.counters.find("dim");
      if (dim_it != run.counters.end()) e.dim = dim_it->second.value;
      auto t_it = run.counters.find("threads");
      if (t_it != run.counters.end()) e.threads = t_it->second.value;
      auto rescue_it = run.counters.find("rescue_pct");
      if (rescue_it != run.counters.end()) e.rescue_pct = rescue_it->second.value;
      auto pruned_it = run.counters.find("pruned_pct");
      if (pruned_it != run.counters.end()) e.pruned_pct = pruned_it->second.value;
      auto exact_it = run.counters.find("exact_evals");
      if (exact_it != run.counters.end()) {
        e.exact_evals = exact_it->second.value;
      }
      auto screened_it = run.counters.find("screened_evals");
      if (screened_it != run.counters.end()) {
        e.screened_evals = screened_it->second.value;
      }
      e.metric = run.report_label;
      if (run.iterations > 0) {
        e.ns_per_op =
            run.real_accumulated_time / static_cast<double>(run.iterations) *
            1e9;
      }
      entries_.push_back(std::move(e));
    }
  }

  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n");
    std::fprintf(
        f,
        "  \"meta\": {\"git_sha\": \"%s\", \"hw_threads\": %u, "
        "\"avx2\": %s},\n",
        Escaped(GitSha()).c_str(), std::thread::hardware_concurrency(),
        diverse::kernels::TileSimdEnabled() ? "true" : "false");
    std::fprintf(f, "  \"entries\": [\n");
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f,
                   "    {\"op\": \"%s\", \"n\": %.0f, \"dim\": %.0f, "
                   "\"threads\": %.0f, \"metric\": \"%s\", "
                   "\"ns_per_op\": %.3f",
                   Escaped(e.op).c_str(), e.n, e.dim, e.threads,
                   Escaped(e.metric).c_str(), e.ns_per_op);
      if (e.rescue_pct >= 0.0) {
        std::fprintf(f, ", \"rescue_pct\": %.3f", e.rescue_pct);
      }
      if (e.pruned_pct >= 0.0) {
        std::fprintf(f, ", \"pruned_pct\": %.3f", e.pruned_pct);
      }
      if (e.exact_evals >= 0.0) {
        std::fprintf(f, ", \"exact_evals\": %.0f", e.exact_evals);
      }
      if (e.screened_evals >= 0.0) {
        std::fprintf(f, ", \"screened_evals\": %.0f", e.screened_evals);
      }
      std::fprintf(f, "}%s\n", i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  // Commit of the benchmarked tree: GITHUB_SHA in CI, `git rev-parse` when
  // run from a work tree, "unknown" otherwise.
  static std::string GitSha() {
    const char* env = std::getenv("GITHUB_SHA");
    if (env != nullptr && env[0] != '\0') return env;
    std::string sha;
    if (std::FILE* p = popen("git rev-parse HEAD 2>/dev/null", "r")) {
      char buf[64];
      if (std::fgets(buf, sizeof(buf), p) != nullptr) {
        buf[std::strcspn(buf, "\r\n")] = '\0';
        sha = buf;
      }
      pclose(p);
    }
    return sha.empty() ? "unknown" : sha;
  }

  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
        continue;
      }
      out.push_back(c);
    }
    return out;
  }

  std::vector<Entry> entries_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const char* path = std::getenv("BENCH_MICRO_JSON");
  std::string out = path != nullptr ? path : "BENCH_micro.json";
  if (!reporter.WriteJson(out)) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", out.c_str());
  return 0;
}
