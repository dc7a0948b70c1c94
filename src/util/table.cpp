#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace wsnex::util {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double value, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << value;
  return os.str();
}

std::string Table::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& cells, bool left) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      if (c > 0) os << " | ";
      const std::string& cell = c < cells.size() ? cells[c] : "";
      if (left || c == 0) {
        os << cell << std::string(widths[c] - cell.size(), ' ');
      } else {
        os << std::string(widths[c] - cell.size(), ' ') << cell;
      }
    }
    os << '\n';
  };
  emit_row(headers_, true);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c > 0) os << "-+-";
    os << std::string(widths[c], '-');
  }
  os << '\n';
  for (const auto& row : rows_) emit_row(row, false);
  return os.str();
}

void append_csv_row(std::string& out,
                    std::initializer_list<std::string_view> fields) {
  bool first = true;
  for (const std::string_view field : fields) {
    if (!first) out += ',';
    first = false;
    if (field.find_first_of(",\"\n") == std::string_view::npos) {
      out += field;
      continue;
    }
    out += '"';
    for (const char c : field) {
      if (c == '"') out += '"';
      out += c;
    }
    out += '"';
  }
  out += '\n';
}

}  // namespace wsnex::util
