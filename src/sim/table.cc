#include "src/sim/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace taichi::sim {

std::string Table::ToString() const {
  std::vector<size_t> widths(header_.size());
  for (size_t i = 0; i < header_.size(); ++i) {
    widths[i] = header_[i].size();
  }
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i >= widths.size()) {
        widths.resize(i + 1, 0);
      }
      widths[i] = std::max(widths[i], row[i].size());
    }
  }

  auto render_row = [&](const std::vector<std::string>& cells) {
    std::ostringstream os;
    for (size_t i = 0; i < widths.size(); ++i) {
      std::string cell = i < cells.size() ? cells[i] : "";
      os << (i == 0 ? "| " : " | ");
      os << cell << std::string(widths[i] - cell.size(), ' ');
    }
    os << " |\n";
    return os.str();
  };

  std::ostringstream os;
  os << render_row(header_);
  os << "|";
  for (size_t w : widths) {
    os << std::string(w + 2, '-') << "|";
  }
  os << "\n";
  for (const auto& row : rows_) {
    os << render_row(row);
  }
  return os.str();
}

void Table::Print() const { std::fputs(ToString().c_str(), stdout); }

std::string Table::Num(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

}  // namespace taichi::sim
