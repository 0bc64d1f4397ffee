// Concurrent solves with different kernel policies on one shared Dataset.
//
// Whether a sweep screens in fp32 or prunes with the matching scan's
// cluster-pair bound is part of the Metric it receives (KernelPolicy,
// core/metric.h), not process state, so a call's answer AND its work must
// not depend on what overlapping calls chose. Several threads run repeated
// TrySolve calls, each through its own CountingMetric over a metric with
// one of four policies (screening on/off x indexing on/off), on the
// sequential, streaming and loopback
// MapReduce backends. Every call must reproduce its serial run bit for bit:
// the solution, the diversity, and both evaluation counts. Run under TSan
// via the concurrency label.

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/solve.h"
#include "core/dataset.h"
#include "core/metric.h"
#include "data/synthetic.h"
#include "util/thread_pool.h"

namespace diverse {
namespace {

struct Job {
  Backend backend;
  DiversityProblem problem;
  KernelPolicy policy;
  std::string name;
};

struct Outcome {
  PointSet solution;
  double diversity = 0.0;
  uint64_t exact = 0;
  uint64_t screened = 0;
};

std::vector<Job> AllJobs() {
  const std::vector<std::pair<Backend, DiversityProblem>> runs = {
      {Backend::kSequential, DiversityProblem::kRemoteEdge},
      {Backend::kSequential, DiversityProblem::kRemoteClique},
      {Backend::kStreaming, DiversityProblem::kRemoteEdge},
      {Backend::kMapReduce, DiversityProblem::kRemoteClique},
  };
  std::vector<Job> jobs;
  for (const auto& [backend, problem] : runs) {
    for (bool screening : {true, false}) {
      for (bool indexing : {true, false}) {
        jobs.push_back({backend, problem,
                        {.screening = screening, .indexing = indexing},
                        BackendName(backend) + "/" +
                            ProblemName(problem) +
                            (screening ? "/screened" : "/exact") +
                            (indexing ? "/index=on" : "/index=off")});
      }
    }
  }
  return jobs;
}

// One call through its own counting wrapper over the shared policy metric.
Outcome SolveCounted(const Dataset& data, const Metric& metric,
                     const Job& job) {
  CountingMetric counting(&metric);
  SolveOptions opts;
  opts.backend = job.backend;
  opts.problem = job.problem;
  opts.k = 8;
  opts.num_partitions = 4;
  StatusOr<SolveResult> r = TrySolve(data, counting, opts);
  Outcome out;
  if (!r.ok()) return out;  // an empty solution fails the comparison
  out.solution = std::move(r->solution);
  out.diversity = r->diversity;
  out.exact = counting.exact_evals();
  out.screened = counting.screened_evals();
  return out;
}

TEST(ConcurrentSolveTest, MixedPoliciesMatchSerialRunsBitForBit) {
  SetGlobalThreadPoolSize(2);
  // dim 16: the single-query GMM sweeps screen only at >= 8 coords per row.
  const Dataset data(GenerateGaussianBlobs(1200, 12, 16, 0.03, /*seed=*/71));
  const std::vector<Job> jobs = AllJobs();
  std::vector<std::unique_ptr<Metric>> metrics;
  for (const Job& job : jobs) {
    metrics.push_back(MakeMetricByName("euclidean", job.policy));
  }

  std::vector<Outcome> serial;
  for (size_t j = 0; j < jobs.size(); ++j) {
    serial.push_back(SolveCounted(data, *metrics[j], jobs[j]));
    ASSERT_EQ(serial[j].solution.size(), 8u) << jobs[j].name;
    if (!jobs[j].policy.screening) {
      EXPECT_EQ(serial[j].screened, 0u) << jobs[j].name;
    }
  }
  // The policies really move work, so an overlapping call that leaked its
  // policy into another would change that call's counts.
  EXPECT_GT(serial[0].screened, 0u) << jobs[0].name;
  EXPECT_NE(serial[0].exact, serial[3].exact) << jobs[0].name;

  // Each thread starts at a different job and walks all of them, so every
  // job overlaps calls with every other policy.
  constexpr size_t kThreads = 6;
  constexpr size_t kRounds = 2;
  std::vector<std::vector<Outcome>> got(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = 0; i < kRounds * jobs.size(); ++i) {
        const size_t j = (t * 5 + i) % jobs.size();
        got[t].push_back(SolveCounted(data, *metrics[j], jobs[j]));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), kRounds * jobs.size());
    for (size_t i = 0; i < got[t].size(); ++i) {
      const size_t j = (t * 5 + i) % jobs.size();
      const Outcome& want = serial[j];
      const Outcome& have = got[t][i];
      const std::string ctx = jobs[j].name + " thread " + std::to_string(t);
      EXPECT_EQ(have.solution, want.solution) << ctx;
      EXPECT_EQ(have.diversity, want.diversity) << ctx;
      EXPECT_EQ(have.exact, want.exact) << ctx;
      EXPECT_EQ(have.screened, want.screened) << ctx;
      if (!jobs[j].policy.screening) EXPECT_EQ(have.screened, 0u) << ctx;
    }
  }
  SetGlobalThreadPoolSize(1);
}

}  // namespace
}  // namespace diverse
