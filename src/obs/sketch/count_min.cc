#include "src/obs/sketch/count_min.h"

#include <algorithm>
#include <cmath>

#include "src/obs/json.h"
#include "src/sim/logging.h"

namespace taichi::obs::sketch {

namespace {

uint32_t RoundUpPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

}  // namespace

CountMinSketch::CountMinSketch(CountMinConfig config)
    : config_(config), hash_(DeriveSeed(config.seed, kCountMinTag)) {
  if (config_.width < 2) {
    TAICHI_ERROR(0, "cms: width %u is degenerate, clamping to 2", config_.width);
    config_.width = 2;
  }
  if (config_.depth < 1) {
    TAICHI_ERROR(0, "cms: depth %u is degenerate, clamping to 1", config_.depth);
    config_.depth = 1;
  }
  if (config_.depth > kMaxDepth) {
    TAICHI_ERROR(0, "cms: depth %u exceeds %u, clamping", config_.depth, kMaxDepth);
    config_.depth = kMaxDepth;
  }
  width_ = RoundUpPow2(config_.width);
  mask_ = width_ - 1;
  cells_.resize(static_cast<size_t>(width_) * config_.depth);
}

CountMinSketch::Estimate CountMinSketch::Update(const HashPair& h, uint32_t bytes) {
  // Conservative update: read the current minima, then raise only the cells
  // that sit at (or below) minimum + increment. Cells inflated by other
  // flows are left alone, which is what keeps the overestimate small.
  Cell* row_cells[kMaxDepth];
  uint64_t min_packets = UINT64_MAX;
  uint64_t min_bytes = UINT64_MAX;
  for (uint32_t row = 0; row < config_.depth; ++row) {
    row_cells[row] = &cells_[CellIndex(h, row)];
    min_packets = std::min(min_packets, row_cells[row]->packets);
    min_bytes = std::min(min_bytes, row_cells[row]->bytes);
  }
  const uint64_t target_packets = min_packets + 1;
  const uint64_t target_bytes = min_bytes + bytes;
  for (uint32_t row = 0; row < config_.depth; ++row) {
    Cell& c = *row_cells[row];
    c.packets = std::max(c.packets, target_packets);
    c.bytes = std::max(c.bytes, target_bytes);
  }
  ++total_packets_;
  total_bytes_ += bytes;
  // Every row now holds at least the targets, and the rows that held the
  // minima hold exactly them: the targets are the new row minima.
  return {target_packets, target_bytes};
}

CountMinSketch::Estimate CountMinSketch::Query(const FlowKey& key) const {
  const HashPair h = hash_(key);
  Estimate est{UINT64_MAX, UINT64_MAX};
  for (uint32_t row = 0; row < config_.depth; ++row) {
    const Cell& c = cells_[CellIndex(h, row)];
    est.packets = std::min(est.packets, c.packets);
    est.bytes = std::min(est.bytes, c.bytes);
  }
  return est;
}

bool CountMinSketch::Merge(const CountMinSketch& other) {
  if (!Compatible(other)) {
    TAICHI_ERROR(0, "cms: merge of incompatible sketches (w %u/%u d %u/%u)",
                 width_, other.width_, config_.depth, other.config_.depth);
    return false;
  }
  for (size_t i = 0; i < cells_.size(); ++i) {
    cells_[i].packets += other.cells_[i].packets;
    cells_[i].bytes += other.cells_[i].bytes;
  }
  total_packets_ += other.total_packets_;
  total_bytes_ += other.total_bytes_;
  return true;
}

double CountMinSketch::epsilon() const {
  return std::exp(1.0) / static_cast<double>(width_);
}

std::string CountMinSketch::ToJson() const {
  std::string out = "{";
  out += "\"width\": " + std::to_string(width_);
  out += ", \"depth\": " + std::to_string(config_.depth);
  out += ", \"total_packets\": " + std::to_string(total_packets_);
  out += ", \"total_bytes\": " + std::to_string(total_bytes_);
  out += ", \"epsilon\": " + JsonNum(epsilon());
  out += "}";
  return out;
}

}  // namespace taichi::obs::sketch
