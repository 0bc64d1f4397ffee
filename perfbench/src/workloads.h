// The benchmark's workloads: the fixed solver configuration of each and the
// generator of its input from the workload seed.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "api/solve.h"
#include "core/metric.h"
#include "core/point.h"

namespace perfbench {

/// How a workload's requests reach the solver.
enum class Mode {
  /// Load the input file, then MapReduce on a persistent SocketEngine.
  kSocketFromFile,
  /// MapReduce on the in-process LoopbackEngine over an in-memory Dataset.
  kLoopbackInMemory,
  /// One streaming pass over an in-memory Dataset.
  kStreamingInMemory,
};

struct Workload {
  std::string name;
  Mode mode = Mode::kLoopbackInMemory;
  /// Input description, for the result's meta block.
  std::string input;
  size_t n = 0;
  size_t dim = 0;
  /// Built-in metric name (core/metric.h), also the socket wire name.
  std::string metric;
  /// Solver options of every request; request i of kSocketFromFile
  /// overrides `seed` (the partition seed) with i.
  diverse::SolveOptions options;
  /// Socket engine pool size (kSocketFromFile only).
  size_t socket_workers = 0;
  /// Kernel threads per process (the DIVERSE_THREADS the driver script
  /// sets); recorded in the meta block.
  size_t kernel_threads = 0;
};

/// The workload called `name`, or false when there is none.
bool FindWorkload(const std::string& name, Workload* out);

/// Comma-separated names of every workload.
std::string WorkloadNames();

/// Generates the workload's input from `seed`: the same seed gives the same
/// points. The structure that decides quality and per-point cost (planted
/// points, blob centers, the opening documents of the stream) comes from a
/// fixed seed; `seed` draws the rest.
diverse::PointSet GenerateInput(const Workload& w, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
