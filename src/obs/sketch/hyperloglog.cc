#include "src/obs/sketch/hyperloglog.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/obs/json.h"
#include "src/sim/logging.h"

namespace taichi::obs::sketch {

HyperLogLog::HyperLogLog(HyperLogLogConfig config)
    : config_(config), hash_(DeriveSeed(config.seed, /*tag=*/0x411)) {
  if (config_.precision < 4 || config_.precision > 18) {
    TAICHI_ERROR(0, "hll: precision %u out of [4, 18], clamping", config_.precision);
    config_.precision = std::clamp<uint32_t>(config_.precision, 4, 18);
  }
  registers_.resize(size_t{1} << config_.precision, 0);
}

void HyperLogLog::Observe(const FlowKey& key) {
  // Top p bits select the register; the rank is 1 + leading zeros of the
  // remaining 64-p bits (capped by the hash width, which never binds at
  // realistic cardinalities).
  const uint64_t h1 = hash_.H1(key);
  const int p = static_cast<int>(config_.precision);
  const size_t reg = static_cast<size_t>(h1 >> (64 - p));
  const uint64_t rest = h1 << p;  // The low 64-p bits, top-aligned.
  const int lz = rest == 0 ? 64 - p : std::countl_zero(rest);
  const uint8_t rank = static_cast<uint8_t>(std::min(64 - p, lz + 1));
  registers_[reg] = std::max(registers_[reg], rank);
}

double HyperLogLog::Estimate() const {
  const double m = static_cast<double>(registers_.size());
  // Bias-corrected harmonic mean (alpha_m from the HLL paper).
  const double alpha = 0.7213 / (1.0 + 1.079 / m);
  double inv_sum = 0;
  size_t zeros = 0;
  for (uint8_t r : registers_) {
    inv_sum += std::ldexp(1.0, -static_cast<int>(r));
    if (r == 0) {
      ++zeros;
    }
  }
  const double raw = alpha * m * m / inv_sum;
  if (raw <= 2.5 * m && zeros > 0) {
    // Small-range correction: linear counting over empty registers.
    return m * std::log(m / static_cast<double>(zeros));
  }
  return raw;
}

double HyperLogLog::ErrorBound() const {
  return 1.04 / std::sqrt(static_cast<double>(registers_.size()));
}

bool HyperLogLog::Merge(const HyperLogLog& other) {
  if (!Compatible(other)) {
    TAICHI_ERROR(0, "hll: merge of incompatible estimators (p %u/%u)",
                 config_.precision, other.config_.precision);
    return false;
  }
  for (size_t i = 0; i < registers_.size(); ++i) {
    registers_[i] = std::max(registers_[i], other.registers_[i]);
  }
  return true;
}

std::string HyperLogLog::ToJson() const {
  std::string out = "{";
  out += "\"precision\": " + std::to_string(config_.precision);
  out += ", \"estimate\": " + JsonNum(Estimate());
  out += ", \"error_bound\": " + JsonNum(ErrorBound());
  out += "}";
  return out;
}

}  // namespace taichi::obs::sketch
