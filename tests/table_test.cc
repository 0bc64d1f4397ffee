#include "table.h"

#include <gtest/gtest.h>

namespace diverse {
namespace {

TEST(TablePrinterTest, AlignedOutput) {
  TablePrinter t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "12345"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 12345 |"), std::string::npos);
}

TEST(TablePrinterTest, CsvOutput) {
  TablePrinter t({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

TEST(TablePrinterTest, FmtDouble) {
  EXPECT_EQ(TablePrinter::Fmt(1.23456, 3), "1.235");
  EXPECT_EQ(TablePrinter::Fmt(2.0, 1), "2.0");
}

TEST(TablePrinterTest, FmtInt) {
  EXPECT_EQ(TablePrinter::Fmt(42ll), "42");
  EXPECT_EQ(TablePrinter::Fmt(-7ll), "-7");
}

TEST(TablePrinterDeathTest, RowWidthMismatch) {
  TablePrinter t({"only"});
  EXPECT_DEATH(t.AddRow({"a", "b"}), "CHECK failed");
}

}  // namespace
}  // namespace diverse
