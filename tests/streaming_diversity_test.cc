#include "streaming/streaming_diversity.h"

#include <gtest/gtest.h>

#include "core/dataset.h"
#include "core/exact.h"
#include "core/metric.h"
#include "data/sparse_text.h"
#include "data/synthetic.h"

namespace diverse {
namespace {

TEST(StreamingDiversityTest, ProducesKPoints) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(400, 2, /*seed=*/1);
  for (DiversityProblem p : kAllProblems) {
    StreamingDiversity sd(&m, p, 6, 12);
    for (const Point& x : pts) sd.Update(x);
    StreamingResult r = sd.Finalize();
    EXPECT_EQ(r.solution.size(), 6u) << ProblemName(p);
    EXPECT_GT(r.diversity, 0.0) << ProblemName(p);
    EXPECT_GE(r.coreset_size, 6u) << ProblemName(p);
  }
}

TEST(StreamingDiversityTest, ShortStreamReturnsEverything) {
  EuclideanMetric m;
  StreamingDiversity sd(&m, DiversityProblem::kRemoteEdge, 8, 16);
  PointSet pts = GenerateUniformCube(5, 2, /*seed=*/2);
  for (const Point& x : pts) sd.Update(x);
  StreamingResult r = sd.Finalize();
  EXPECT_EQ(r.solution.size(), 5u);
}

TEST(StreamingDiversityTest, SolutionPointsComeFromStream) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(300, 2, /*seed=*/3);
  StreamingDiversity sd(&m, DiversityProblem::kRemoteClique, 5, 10);
  for (const Point& x : pts) sd.Update(x);
  StreamingResult r = sd.Finalize();
  for (const Point& s : r.solution) {
    bool found = false;
    for (const Point& p : pts) {
      if (p == s) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(StreamingDiversityTest, MemoryIndependentOfStreamLength) {
  EuclideanMetric m;
  size_t k = 4, k_prime = 8;
  size_t peak_short, peak_long;
  {
    StreamingDiversity sd(&m, DiversityProblem::kRemoteEdge, k, k_prime);
    for (const Point& x : GenerateUniformCube(500, 2, 4)) sd.Update(x);
    peak_short = sd.peak_memory_points();
  }
  {
    StreamingDiversity sd(&m, DiversityProblem::kRemoteEdge, k, k_prime);
    for (const Point& x : GenerateUniformCube(20000, 2, 5)) sd.Update(x);
    peak_long = sd.peak_memory_points();
  }
  // Both runs are bounded by ~2(k'+1); the long stream may not use more.
  EXPECT_LE(peak_long, 2 * (k_prime + 1));
  EXPECT_LE(peak_short, 2 * (k_prime + 1));
}

// Quality against the exact optimum on small inputs: the streaming pipeline
// is an (alpha + eps)-approximation; we assert the conservative bound
// alpha * (1 + 1) to absorb small-k' effects, and also record that larger k'
// does not hurt.
TEST(StreamingDiversityTest, ApproximationOnTinyInput) {
  EuclideanMetric m;
  for (DiversityProblem p : kAllProblems) {
    double alpha = SequentialAlpha(p);
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      PointSet pts = GenerateUniformCube(16, 2, seed * 11);
      size_t k = 4;
      StreamingDiversity sd(&m, p, k, 8);
      for (const Point& x : pts) sd.Update(x);
      StreamingResult r = sd.Finalize();
      double opt = ExactDiversityMaximization(p, pts, m, k).value;
      EXPECT_GE(r.diversity * alpha * 2.0 + 1e-9, opt)
          << ProblemName(p) << " seed " << seed;
    }
  }
}

TEST(StreamingDiversityTest, LargerKPrimeImprovesPlantedRecovery) {
  // On the planted-sphere data, remote-edge value must approach the planted
  // separation as k' grows.
  EuclideanMetric m;
  SphereDatasetOptions opts;
  opts.n = 5000;
  opts.k = 8;
  opts.seed = 9;
  double prev = 0.0;
  double first = 0.0, last = 0.0;
  for (size_t mult : {1u, 4u, 16u}) {
    SphereStream stream(opts);
    StreamingDiversity sd(&m, DiversityProblem::kRemoteEdge, opts.k,
                          opts.k * mult);
    while (stream.HasNext()) sd.Update(stream.Next());
    StreamingResult r = sd.Finalize();
    if (mult == 1u) first = r.diversity;
    last = r.diversity;
    prev = r.diversity;
  }
  (void)prev;
  EXPECT_GE(last + 0.05, first);  // no degradation, usually improvement
  EXPECT_GT(last, 0.3);           // clearly separated planted points found
}

// UpdateAll over a Dataset (which skips the rows base SMM's hinted center
// covers) and one Update per point reach the same answer, core-set size,
// peak memory and phase count, in the centers-only mode (remote-edge) and
// the delegates mode (remote-clique).
TEST(StreamingDiversityTest, UpdateAllMatchesPointUpdates) {
  EuclideanMetric euclidean;
  CosineMetric cosine;
  SparseTextOptions text;
  text.n = 3000;
  text.seed = 5;
  struct Case {
    const char* name;
    const Metric* metric;
    PointSet stream;
  };
  const Case cases[] = {
      {"dense-uniform", &euclidean, GenerateUniformCube(3000, 2, 4)},
      {"sparse-text-cosine", &cosine, GenerateSparseTextDataset(text)},
  };
  for (const Case& c : cases) {
    const Dataset data(c.stream);
    for (DiversityProblem p :
         {DiversityProblem::kRemoteEdge, DiversityProblem::kRemoteClique}) {
      SCOPED_TRACE(testing::Message() << c.name << " " << ProblemName(p));
      StreamingDiversity per_point(c.metric, p, 6, 24);
      for (const Point& x : c.stream) per_point.Update(x);
      StreamingDiversity all(c.metric, p, 6, 24);
      all.UpdateAll(data);
      StreamingResult want = per_point.Finalize();
      StreamingResult got = all.Finalize();
      EXPECT_GE(want.phases, 2u);
      EXPECT_EQ(got.solution, want.solution);
      EXPECT_EQ(got.diversity, want.diversity);
      EXPECT_EQ(got.coreset_size, want.coreset_size);
      EXPECT_EQ(got.peak_memory_points, want.peak_memory_points);
      EXPECT_EQ(got.phases, want.phases);
    }
  }
}

TEST(TwoPassStreamingTest, EndToEndProducesKDistinctPoints) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(600, 2, /*seed=*/6);
  for (DiversityProblem p :
       {DiversityProblem::kRemoteClique, DiversityProblem::kRemoteStar,
        DiversityProblem::kRemoteBipartition, DiversityProblem::kRemoteTree}) {
    TwoPassStreamingDiversity sd(&m, p, 6, 12);
    for (const Point& x : pts) sd.UpdateFirstPass(x);
    sd.EndFirstPass();
    for (const Point& x : pts) sd.UpdateSecondPass(x);
    StreamingResult r = sd.Finalize();
    EXPECT_EQ(r.solution.size(), 6u) << ProblemName(p);
    for (size_t i = 0; i < r.solution.size(); ++i) {
      for (size_t j = i + 1; j < r.solution.size(); ++j) {
        EXPECT_FALSE(r.solution[i] == r.solution[j]) << ProblemName(p);
      }
    }
    EXPECT_GT(r.diversity, 0.0) << ProblemName(p);
  }
}

// The coherent subset chosen after pass 1 has expanded size k: the second
// pass instantiates at most one input point per unit of its multiplicity,
// so k instantiated points mean every unit was there and was filled.
TEST(TwoPassStreamingTest, SelectedSubsetIsCoherentWithSizeK) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(500, 2, /*seed=*/7);
  TwoPassStreamingDiversity sd(&m, DiversityProblem::kRemoteClique, 5, 10);
  for (const Point& x : pts) sd.UpdateFirstPass(x);
  sd.EndFirstPass();
  EXPECT_GT(sd.delta(), 0.0);
  for (const Point& x : pts) sd.UpdateSecondPass(x);
  EXPECT_EQ(sd.Finalize().solution.size(), 5u);
}

TEST(TwoPassStreamingTest, UsesLessMemoryThanOnePassExt) {
  EuclideanMetric m;
  PointSet pts = GenerateUniformCube(5000, 2, /*seed=*/8);
  size_t k = 16, k_prime = 32;

  StreamingDiversity one_pass(&m, DiversityProblem::kRemoteClique, k, k_prime);
  for (const Point& x : pts) one_pass.Update(x);
  size_t one_pass_mem = one_pass.peak_memory_points();
  one_pass.Finalize();

  TwoPassStreamingDiversity two_pass(&m, DiversityProblem::kRemoteClique, k,
                                     k_prime);
  for (const Point& x : pts) two_pass.UpdateFirstPass(x);
  two_pass.EndFirstPass();
  for (const Point& x : pts) two_pass.UpdateSecondPass(x);
  StreamingResult r = two_pass.Finalize();
  // Theorem 9: pass-1 memory is O(k') pairs vs O(k k') points for SMM-EXT.
  EXPECT_LT(r.peak_memory_points, one_pass_mem);
}

TEST(TwoPassStreamingDeathTest, RejectsNonInjectiveProblems) {
  EuclideanMetric m;
  EXPECT_DEATH(
      TwoPassStreamingDiversity(&m, DiversityProblem::kRemoteEdge, 4, 8),
      "CHECK failed");
}

}  // namespace
}  // namespace diverse
