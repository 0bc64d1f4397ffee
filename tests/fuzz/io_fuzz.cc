// libFuzzer harness for the hardened point loaders (data/io.h).
//
// The Status-returning parse cores are the natural fuzz target: every
// validation path (bad magic, truncated records, impossible counts,
// unsorted sparse indices, malformed text) must reject hostile bytes with
// a diagnosable error, never crash, hang, or over-allocate. The first
// input byte selects the format (text vs binary) so one corpus covers
// both parsers; accepted inputs additionally round-trip through the text
// serializer as a consistency oracle (a parse-accepts / serialize-reparse
// mismatch is a CHECK-abort, i.e. a fuzzer finding), and are built into a
// Dataset through Dataset::TryFromPoints, which must return a Status (e.g.
// on mixed dims) rather than abort. Binary inputs also drive the direct
// Dataset parser (TryParseDatasetBinary), whose result must equal that
// PointSet-then-TryFromPoints result: the same Status code and message, or
// the same rows, norms and statistics.
//
// Build modes (CMakeLists.txt):
//   * clang + DIVERSE_FUZZ_LIBFUZZER: -fsanitize=fuzzer,address — real
//     coverage-guided fuzzing (the CI analyze job runs a short smoke).
//   * otherwise: a standalone driver main() that replays the committed
//     corpus (tests/fuzz/corpus/) as a plain regression test, so the
//     harness itself cannot rot on toolchains without libFuzzer.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "core/dataset.h"
#include "data/io.h"
#include "util/check.h"

namespace {

// The direct binary Dataset parser's oracle: `got` must equal `want`, the
// result of the PointSet parse followed by Dataset::TryFromPoints.
void CheckSameDataset(const diverse::StatusOr<diverse::Dataset>& got,
                      const diverse::StatusOr<diverse::Dataset>& want) {
  DIVERSE_CHECK(got.ok() == want.ok());
  if (!want.ok()) {
    DIVERSE_CHECK(got.status().code() == want.status().code());
    DIVERSE_CHECK(got.status().message() == want.status().message());
    return;
  }
  DIVERSE_CHECK_EQ(got->size(), want->size());
  DIVERSE_CHECK_EQ(got->dim(), want->dim());
  for (size_t i = 0; i < want->size(); ++i) {
    DIVERSE_CHECK(got->RowEquals(i, want->point(i)));
    // Bit equality; NaN norms (from NaN coordinates) compare by pattern.
    const double a = got->norm(i), b = want->norm(i);
    DIVERSE_CHECK(std::memcmp(&a, &b, sizeof(a)) == 0);
  }
  DIVERSE_CHECK_EQ(got->sparse_stats().rows, want->sparse_stats().rows);
  DIVERSE_CHECK_EQ(got->sparse_stats().total_nnz,
                   want->sparse_stats().total_nnz);
  DIVERSE_CHECK_EQ(got->sparse_stats().max_nnz, want->sparse_stats().max_nnz);
  const double min_a = got->screen_stats().min_positive_norm;
  const double min_b = want->screen_stats().min_positive_norm;
  const double max_a = got->screen_stats().max_norm;
  const double max_b = want->screen_stats().max_norm;
  DIVERSE_CHECK(std::memcmp(&min_a, &min_b, sizeof(min_a)) == 0);
  DIVERSE_CHECK(std::memcmp(&max_a, &max_b, sizeof(max_a)) == 0);
}

void FuzzOne(const uint8_t* data, size_t size) {
  if (size == 0) return;
  const bool text = (data[0] & 1) != 0;
  std::string_view payload(reinterpret_cast<const char*>(data + 1), size - 1);
  diverse::StatusOr<diverse::PointSet> parsed =
      text ? diverse::TryParsePointsText(payload, "<fuzz>")
           : diverse::TryParsePointsBinary(payload, "<fuzz>");
  if (!parsed.ok()) {
    // Rejected input must carry a diagnosis, never an OK code.
    DIVERSE_CHECK(!parsed.status().message().empty());
    if (!text) {
      CheckSameDataset(diverse::TryParseDatasetBinary(payload, "<fuzz>"),
                       parsed.status());
    }
    return;
  }
  // Accepted input: the canonical text round-trip must accept and preserve
  // every point the parser just vouched for.
  for (const diverse::Point& p : *parsed) {
    std::optional<diverse::Point> back =
        diverse::PointFromTextLine(diverse::PointToTextLine(p));
    DIVERSE_CHECK(back.has_value());
    DIVERSE_CHECK(*back == p);
  }
  const size_t n = parsed->size();
  diverse::StatusOr<diverse::Dataset> dataset =
      diverse::Dataset::TryFromPoints(std::move(*parsed));
  if (!text) {
    CheckSameDataset(diverse::TryParseDatasetBinary(payload, "<fuzz>"),
                     dataset);
  }
  if (dataset.ok()) {
    DIVERSE_CHECK_EQ(dataset->size(), n);
  } else {
    DIVERSE_CHECK(dataset.status().code() ==
                  diverse::StatusCode::kInvalidArgument);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  FuzzOne(data, size);
  return 0;
}

#ifndef DIVERSE_FUZZ_LIBFUZZER
// Standalone regression driver: each argv path is a corpus file or a
// directory of corpus files; every input is replayed through FuzzOne.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

namespace {

int ReplayFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot open corpus file " << path << "\n";
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = std::move(buf).str();
  FuzzOne(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::filesystem::path> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::filesystem::path arg(argv[i]);
    if (std::filesystem::is_directory(arg)) {
      for (const auto& entry : std::filesystem::directory_iterator(arg)) {
        if (entry.is_regular_file()) inputs.push_back(entry.path());
      }
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) {
    std::cerr << "io_fuzz: no corpus inputs given\n";
    return 1;
  }
  for (const auto& path : inputs) {
    if (ReplayFile(path) != 0) return 1;
  }
  std::cout << "io_fuzz: replayed " << inputs.size() << " corpus inputs\n";
  return 0;
}
#endif  // DIVERSE_FUZZ_LIBFUZZER
