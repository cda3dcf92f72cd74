// A minimal aligned ASCII table printer used by the benchmark harnesses to
// emit paper-style rows.
#ifndef SRC_SIM_TABLE_H_
#define SRC_SIM_TABLE_H_

#include <string>
#include <vector>

namespace taichi::sim {

class Table {
 public:
  explicit Table(std::vector<std::string> header) : header_(std::move(header)) {}

  // Adds a row; missing trailing cells render empty, extra cells are kept.
  void AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  // Renders with column alignment and a separator under the header.
  std::string ToString() const;

  // Convenience: renders to stdout.
  void Print() const;

  // Formats a double with `digits` decimals.
  static std::string Num(double v, int digits = 2);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace taichi::sim

#endif  // SRC_SIM_TABLE_H_
