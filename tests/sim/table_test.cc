#include "src/sim/table.h"

#include <gtest/gtest.h>

namespace taichi::sim {
namespace {

TEST(TableTest, RendersAlignedColumns) {
  Table t({"Mechanism", "Avg (us)"});
  t.AddRow({"Baseline", "30"});
  t.AddRow({"Tai Chi", "30"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("| Mechanism | Avg (us) |"), std::string::npos);
  EXPECT_NE(out.find("| Baseline  | 30       |"), std::string::npos);
}

TEST(TableTest, ShortRowsPadEmptyCells) {
  Table t({"A", "B"});
  t.AddRow({"x"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("| x |   |"), std::string::npos);
}

TEST(TableTest, NumFormatsDigits) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(3.0, 0), "3");
}

TEST(TableTest, HeaderSeparatorPresent) {
  Table t({"h"});
  t.AddRow({"v"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("|---"), std::string::npos);
}

}  // namespace
}  // namespace taichi::sim
