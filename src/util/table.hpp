// Text tables: column-aligned ASCII for bench and CLI output, and CSV
// rows for result files.
//
// Every bench binary reproduces one of the paper's tables/figures as a
// plain-text table; this keeps their formatting consistent.
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace wsnex::util {

/// Column-aligned ASCII table. Cells are strings; numeric helpers format
/// with a fixed number of decimals.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Formats a double with `decimals` digits after the point.
  static std::string num(double value, int decimals = 3);

  /// Renders the table with a header rule, e.g.
  ///   config      | model [mJ/s] | measured [mJ/s] | err [%]
  ///   ------------+--------------+-----------------+--------
  ///   1MHz CR0.17 |        2.119 |           2.121 |    0.09
  std::string render() const;

  std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Appends one CSV row to `out`: fields joined by ',' and ended by '\n'.
/// A field is quoted only when it holds a comma, a double quote or a
/// newline, and quotes inside it are doubled (RFC 4180). Callers build a
/// whole file this way and hand it to util::write_file_atomic.
void append_csv_row(std::string& out,
                    std::initializer_list<std::string_view> fields);

}  // namespace wsnex::util
