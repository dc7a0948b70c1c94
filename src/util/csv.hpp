// Minimal CSV writer used by examples and benches to export series that
// correspond to the paper's figures.
#pragma once

#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

namespace wsnex::util {

/// Streams rows to a CSV file; fields are quoted only when necessary.
/// Every failure — open, a row write, the final flush — throws
/// util::FileError naming the path and strerror(errno), so callers can
/// treat a full disk as an environment fault. Call close() to learn
/// whether the buffered tail reached the file; the destructor closes
/// silently.
class CsvWriter {
 public:
  /// Opens `path` for writing.
  explicit CsvWriter(const std::string& path);

  /// Writes a header or data row of string fields.
  void write_row(const std::vector<std::string>& fields);
  void write_row(std::initializer_list<std::string> fields);

  /// Writes a row of numeric fields with full double precision.
  void write_numeric_row(const std::vector<double>& fields);

  /// Flushes and closes the file. Further writes are errors.
  void close();

  /// Number of rows written so far (including headers).
  std::size_t rows_written() const { return rows_; }

 private:
  static std::string escape(const std::string& field);
  /// Throws FileError for `what` when the stream has failed.
  void check(const char* what);

  std::string path_;
  std::ofstream out_;
  std::size_t rows_ = 0;
};

}  // namespace wsnex::util
