#include "workloads.h"

#include <algorithm>
#include <vector>

#include "data/sparse_text.h"
#include "data/synthetic.h"
#include "util/rng.h"

namespace perfbench {

using diverse::Backend;
using diverse::DiversityProblem;
using diverse::PointSet;

namespace {

// Seed of the part of every input that decides solution quality and
// per-point cost: the sphere's planted points, the blob centers, and the
// documents that open the text stream. Fixing it keeps those figures
// comparable across --seed values, which draw everything else (see
// README.md, "Inputs").
constexpr uint64_t kFixedStructureSeed = 1000;
constexpr size_t kBlobCenters = 64;
constexpr double kBlobStddev = 0.02;

std::vector<Workload> AllWorkloads() {
  std::vector<Workload> all;
  {
    Workload w;
    w.name = "mr-socket-sphere3d";
    w.mode = Mode::kSocketFromFile;
    w.input = "planted sphere (16 planted points), binary file";
    w.n = 250000;
    w.dim = 3;
    w.metric = "euclidean";
    w.options.problem = DiversityProblem::kRemoteEdge;
    w.options.backend = Backend::kMapReduce;
    w.options.k = 16;
    w.options.k_prime = 64;
    w.options.num_partitions = 8;
    // Three workers plus the driver, which parses, partitions and
    // serializes while they compute, keep to four cores.
    w.options.num_workers = 3;
    w.socket_workers = 3;
    w.kernel_threads = 1;
    all.push_back(w);
  }
  {
    Workload w;
    w.name = "mr-loopback-blobs16-clique";
    w.mode = Mode::kLoopbackInMemory;
    w.input = "gaussian blobs (64 centers, stddev 0.02), in memory";
    w.n = 1000000;
    w.dim = 16;
    w.metric = "euclidean";
    w.options.problem = DiversityProblem::kRemoteClique;
    w.options.backend = Backend::kMapReduce;
    w.options.k = 24;
    w.options.k_prime = 96;
    w.options.num_partitions = 8;
    w.options.num_workers = 4;
    w.kernel_threads = 4;
    all.push_back(w);
  }
  {
    Workload w;
    w.name = "stream-text-cosine";
    w.mode = Mode::kStreamingInMemory;
    w.input = "sparse bag-of-words (vocab 5000, 32 topics), in memory";
    w.n = 200000;
    w.dim = 5000;
    w.metric = "cosine";
    w.options.problem = DiversityProblem::kRemoteEdge;
    w.options.backend = Backend::kStreaming;
    w.options.k = 32;
    w.options.k_prime = 128;
    w.kernel_threads = 4;
    all.push_back(w);
  }
  return all;
}

}  // namespace

bool FindWorkload(const std::string& name, Workload* out) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) {
      *out = w;
      return true;
    }
  }
  return false;
}

std::string WorkloadNames() {
  std::string names;
  for (const Workload& w : AllWorkloads()) {
    names += (names.empty() ? "" : ",") + w.name;
  }
  return names;
}

diverse::PointSet GenerateInput(const Workload& w, uint64_t seed) {
  PointSet points;
  switch (w.mode) {
    case Mode::kSocketFromFile: {
      diverse::SphereDatasetOptions o;
      o.n = w.n;
      o.k = w.options.k;
      o.dim = w.dim;
      o.seed = seed;
      points = diverse::GenerateSphereDataset(o);
      // The planted points lead the generator's output.
      o.n = o.k;
      o.seed = kFixedStructureSeed;
      PointSet planted = diverse::GenerateSphereDataset(o);
      std::move(planted.begin(), planted.end(), points.begin());
      break;
    }
    case Mode::kLoopbackInMemory: {
      // GenerateGaussianBlobs's construction (point i in blob i mod 64),
      // with the blob centers drawn from the fixed seed and the offsets
      // from `seed`.
      const PointSet centers = diverse::GenerateUniformCube(
          kBlobCenters, w.dim, kFixedStructureSeed);
      diverse::Rng rng(seed);
      points.reserve(w.n);
      for (size_t i = 0; i < w.n; ++i) {
        const std::vector<float>& c = centers[i % kBlobCenters].dense_values();
        std::vector<float> v(w.dim);
        for (size_t d = 0; d < w.dim; ++d) {
          v[d] = static_cast<float>(c[d] + kBlobStddev * rng.NextGaussian());
        }
        points.push_back(diverse::Point::Dense(std::move(v)));
      }
      break;
    }
    case Mode::kStreamingInMemory: {
      diverse::SparseTextOptions o;
      o.n = w.n;
      o.vocab_size = static_cast<uint32_t>(w.dim);
      o.num_topics = 32;
      o.seed = seed;
      points = diverse::GenerateSparseTextDataset(o);
      // SMM anchors its doubling thresholds at the first k'+1 points.
      o.n = w.options.k_prime + 1;
      o.seed = kFixedStructureSeed;
      PointSet prefix = diverse::GenerateSparseTextDataset(o);
      std::move(prefix.begin(), prefix.end(), points.begin());
      break;
    }
  }
  return points;
}

}  // namespace perfbench
