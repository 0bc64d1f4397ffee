// Plain-text table printer used by the benchmark harnesses to emit the rows
// and series of each paper table/figure in a uniform, diffable format.

#ifndef DIVERSE_BENCH_TABLE_H_
#define DIVERSE_BENCH_TABLE_H_

#include <string>
#include <vector>

namespace diverse {

/// Accumulates rows of string cells and renders them as an aligned,
/// pipe-separated table. Also supports CSV output so bench results can be fed
/// to plotting scripts.
class TablePrinter {
 public:
  /// Creates a printer with the given column headers.
  explicit TablePrinter(std::vector<std::string> headers);

  /// Appends one row; must have exactly as many cells as there are headers.
  void AddRow(std::vector<std::string> cells);

  /// Renders an aligned text table (headers, separator, rows).
  std::string ToString() const;

  /// Renders comma-separated values (headers then rows).
  std::string ToCsv() const;

  /// Formats a double with `digits` significant decimal places.
  static std::string Fmt(double value, int digits = 3);

  /// Formats an integer.
  static std::string Fmt(long long value);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace diverse

#endif  // DIVERSE_BENCH_TABLE_H_
