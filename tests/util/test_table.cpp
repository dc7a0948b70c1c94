#include <gtest/gtest.h>

#include "util/table.hpp"

namespace wsnex::util {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1.5"});
  t.add_row({"b", "20"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("-+-"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NO_THROW(t.render());
}

TEST(Table, NumFormatsDecimals) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(-0.5, 3), "-0.500");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

}  // namespace
}  // namespace wsnex::util
