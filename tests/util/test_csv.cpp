// The CSV writing path result files take: rows formatted by
// util::append_csv_row, the whole file stored with util::write_file_atomic.
// Covers quoting/escaping edge cases and full-precision numeric
// round-trips (archive CSVs must reload to bit-identical doubles). Write
// errors are write_file_atomic's (FsioTest covers them).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "util/fsio.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace wsnex::util {
namespace {

class CsvWriterTest : public ::testing::Test {
 protected:
  /// One file per test: ctest runs the tests as parallel processes.
  const ::testing::TestInfo* info_ =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string path_ = ::testing::TempDir() + "/wsnex_csv_" +
                      info_->test_suite_name() + "_" + info_->name() + ".csv";

  /// Stores `csv` at path_ and reads the file back.
  std::string round_trip(const std::string& csv) const {
    write_file_atomic(path_, csv);
    return read_file(path_);
  }

  /// Minimal RFC 4180 row splitter for round-trip checks (handles quoted
  /// fields, embedded separators/newlines and doubled quotes).
  static std::vector<std::string> parse_row(const std::string& line,
                                            std::size_t& pos) {
    std::vector<std::string> fields;
    std::string field;
    bool quoted = false;
    for (;; ++pos) {
      if (pos >= line.size()) break;
      const char c = line[pos];
      if (quoted) {
        if (c == '"') {
          if (pos + 1 < line.size() && line[pos + 1] == '"') {
            field += '"';
            ++pos;
          } else {
            quoted = false;
          }
        } else {
          field += c;
        }
      } else if (c == '"') {
        quoted = true;
      } else if (c == ',') {
        fields.push_back(std::move(field));
        field.clear();
      } else if (c == '\n') {
        ++pos;
        break;
      } else {
        field += c;
      }
    }
    fields.push_back(std::move(field));
    return fields;
  }

  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvWriterTest, QuotesOnlyWhenNecessary) {
  std::string csv;
  append_csv_row(csv, {"plain", "with space", "semi;colon"});
  // None of these need quoting per RFC 4180.
  EXPECT_EQ(round_trip(csv), "plain,with space,semi;colon\n");
}

TEST_F(CsvWriterTest, EscapesCommaQuoteAndNewline) {
  std::string csv;
  append_csv_row(csv, {"a,b", "say \"hi\"", "line1\nline2", "", "\"", ","});
  EXPECT_EQ(round_trip(csv),
            "\"a,b\",\"say \"\"hi\"\"\",\"line1\nline2\",,\"\"\"\",\",\"\n");
}

TEST_F(CsvWriterTest, EscapedFieldsParseBackExactly) {
  const std::initializer_list<std::string_view> original = {
      "a,b", "say \"hi\"", "line1\nline2", "", "\"\"", "trailing,", "\n",
      "mix,\"of\nall\""};
  std::string csv;
  append_csv_row(csv, original);
  const std::string contents = round_trip(csv);
  std::size_t pos = 0;
  const std::vector<std::string> parsed = parse_row(contents, pos);
  EXPECT_EQ(parsed,
            std::vector<std::string>(original.begin(), original.end()));
  EXPECT_EQ(pos, contents.size());
}

TEST_F(CsvWriterTest, NumericRowRoundTripsFullPrecision) {
  const std::vector<double> values = {
      1.0 / 3.0,
      3.141592653589793,
      -2.2250738585072014e-308,  // smallest normal
      5e-324,                    // smallest subnormal
      1.7976931348623157e308,    // largest finite
      0.1,
      -0.0,
      123456789.123456789,
  };
  std::string csv;
  const auto num = [&](std::size_t i) {
    return format_double_shortest(values[i]);
  };
  append_csv_row(csv, {num(0), num(1), num(2), num(3), num(4), num(5), num(6),
                       num(7)});
  const std::string contents = round_trip(csv);
  std::size_t pos = 0;
  const std::vector<std::string> fields = parse_row(contents, pos);
  ASSERT_EQ(fields.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double parsed = std::strtod(fields[i].c_str(), nullptr);
    EXPECT_EQ(parsed, values[i]) << "field " << i << " = " << fields[i];
    EXPECT_EQ(std::signbit(parsed), std::signbit(values[i])) << "field " << i;
  }
}

TEST_F(CsvWriterTest, CountsHeaderAndDataRows) {
  std::string csv;
  append_csv_row(csv, {"h1", "h2"});
  append_csv_row(csv,
                 {format_double_shortest(1.0), format_double_shortest(2.0)});
  append_csv_row(csv, {"x", "y"});
  const std::string contents = round_trip(csv);
  EXPECT_EQ(contents, "h1,h2\n1,2\nx,y\n");
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(contents.begin(), contents.end(), '\n')),
            3u);
}

TEST_F(CsvWriterTest, EmptyRowWritesBlankLine) {
  std::string csv;
  append_csv_row(csv, {});
  append_csv_row(csv, {""});
  EXPECT_EQ(round_trip(csv), "\n\n");
}

using CsvFixture = CsvWriterTest;

TEST_F(CsvFixture, WritesPlainRows) {
  std::string csv;
  append_csv_row(csv, {"a", "b"});
  append_csv_row(csv, {"1", "2"});
  EXPECT_EQ(round_trip(csv), "a,b\n1,2\n");
}

TEST_F(CsvFixture, EscapesSpecialCharacters) {
  std::string csv;
  append_csv_row(csv, {"has,comma", "has\"quote", "plain"});
  EXPECT_EQ(round_trip(csv), "\"has,comma\",\"has\"\"quote\",plain\n");
}

TEST_F(CsvFixture, NumericRowRoundTrips) {
  std::string csv;
  append_csv_row(csv,
                 {format_double_shortest(1.5), format_double_shortest(-2.25)});
  EXPECT_EQ(round_trip(csv), "1.5,-2.25\n");
}

TEST(Csv, ThrowsOnUnwritablePath) {
  std::string csv;
  append_csv_row(csv, {"a"});
  EXPECT_THROW(write_file_atomic("/nonexistent-dir/x.csv", csv), FileError);
}

}  // namespace
}  // namespace wsnex::util
