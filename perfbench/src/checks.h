// Output checks applied to every timed request of the benchmark.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "api/solve.h"
#include "core/diversity.h"
#include "core/metric.h"
#include "core/point.h"

namespace perfbench {

/// Sorted 64-bit content hashes of `input`'s rows: the membership index
/// CheckAnswer tests solution points against (8 bytes a row, so the
/// benchmark need not keep the input itself alive next to the program's
/// copy of it).
std::vector<uint64_t> SortedRowHashes(std::span<const diverse::Point> input);

/// Checks that `result` holds exactly `k` pairwise distinct points, each
/// hashing to a row of the input behind `row_hashes` (SortedRowHashes), and
/// that its reported diversity equals div(solution) re-evaluated with
/// EvaluateDiversity under `problem` and `metric`. Returns an empty string
/// when every check passes, else a description of the first failure.
std::string CheckAnswer(const diverse::SolveResult& result, size_t k,
                        diverse::DiversityProblem problem,
                        const diverse::Metric& metric,
                        const std::vector<uint64_t>& row_hashes);

/// Empty when `got` has bit-for-bit the same solution (same points in the
/// same order) and the same diversity as `want`, else a description.
std::string CheckSameAnswer(const diverse::SolveResult& got,
                            const diverse::SolveResult& want);

/// Solves a small instance, confirms the checks accept the true answer, then
/// confirms they reject each deliberately corrupted copy of it (a perturbed
/// coordinate, a duplicated point, a dropped point, a misreported
/// diversity, a reordered solution). Prints one line per case; returns 0
/// when every case behaves, 1 otherwise.
int RunCheckSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
