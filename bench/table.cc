#include "table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "util/check.h"

namespace diverse {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  DIVERSE_CHECK(!headers_.empty());
}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  DIVERSE_CHECK_EQ(cells.size(), headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::ToString() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "| " : " ") << row[c]
          << std::string(widths[c] - row[c].size(), ' ') << " |";
    }
    out << "\n";
  };
  emit_row(headers_);
  for (size_t c = 0; c < headers_.size(); ++c) {
    out << (c == 0 ? "|" : "") << std::string(widths[c] + 2, '-') << "|";
  }
  out << "\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string TablePrinter::ToCsv() const {
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c) out << ",";
      out << row[c];
    }
    out << "\n";
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return out.str();
}

std::string TablePrinter::Fmt(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string TablePrinter::Fmt(long long value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", value);
  return buf;
}

}  // namespace diverse
