// HyperLogLog distinct-flow estimator: 2^precision one-byte registers, each
// holding the maximum leading-zero rank seen in its substream. Constant
// space, O(1) allocation-free updates, and mergeable by register-wise max —
// merging per-node estimators yields exactly the estimator a single fleet
// run would have built, so distinct-flow counts compose across nodes with
// no double counting.
//
// Standard error is ~1.04/sqrt(2^precision) (p=12 -> ~1.6%); the small-range
// regime falls back to linear counting over empty registers, as in the
// original paper.
#ifndef SRC_OBS_SKETCH_HYPERLOGLOG_H_
#define SRC_OBS_SKETCH_HYPERLOGLOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/sketch/sketch_hash.h"

namespace taichi::obs::sketch {

struct HyperLogLogConfig {
  uint32_t precision = 12;  // 2^p registers; clamped to [4, 18].
  uint64_t seed = 0x7a1c5eedULL;
};

class HyperLogLog {
 public:
  explicit HyperLogLog(HyperLogLogConfig config);

  // Observes one flow key. O(1), allocation-free; re-observing a key is a
  // no-op by construction. Reads only h1 of the key's hash pair.
  void Observe(const FlowKey& key);

  // The distinct-count estimate with small-range linear counting correction.
  double Estimate() const;

  // Relative standard error of Estimate(): 1.04 / sqrt(register count).
  double ErrorBound() const;

  // Register-wise max. `other` must share (seed, precision); on mismatch the
  // merge is refused with a TAICHI_ERROR and *this is unchanged.
  bool Merge(const HyperLogLog& other);

  uint32_t precision() const { return config_.precision; }
  uint64_t seed() const { return hash_.seed(); }
  const std::vector<uint8_t>& registers() const { return registers_; }
  bool Compatible(const HyperLogLog& other) const {
    return seed() == other.seed() && config_.precision == other.config_.precision;
  }

  // Deterministic JSON: precision, estimate, error bound.
  std::string ToJson() const;

 private:
  HyperLogLogConfig config_;
  KeyHash hash_;
  std::vector<uint8_t> registers_;  // 2^precision entries.
};

}  // namespace taichi::obs::sketch

#endif  // SRC_OBS_SKETCH_HYPERLOGLOG_H_
