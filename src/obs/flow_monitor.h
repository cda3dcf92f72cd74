// FlowMonitor: per-flow telemetry at millions of flows in constant space.
// Bundles the three sketches — count-min (per-flow packet/byte estimates),
// HyperLogLog (distinct-flow count) and a space-saving table (top-K heavy
// hitters, admission-filtered by the count-min estimates) — behind one
// O(1), allocation-free OnPacket() hook that the packet path calls per
// RX/DP/TX event.
//
// Monitors built from the same FlowMonitorConfig share hash families
// (seeds are fixed config constants, NOT per-node simulation seeds), so
// per-node monitors merge into a fleet monitor the same way MergeSummaries
// adds summary buckets: count-min cells add, HLL registers max, the
// heavy-hitter tables union-and-truncate. The fleet::SloMonitor hotspot
// reports read the merged result to name the flows behind each breach.
#ifndef SRC_OBS_FLOW_MONITOR_H_
#define SRC_OBS_FLOW_MONITOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/flow_key.h"
#include "src/obs/sketch/count_min.h"
#include "src/obs/sketch/hyperloglog.h"
#include "src/obs/sketch/space_saving.h"

namespace taichi::obs {

class MetricsRegistry;

struct FlowMonitorConfig {
  uint32_t cms_width = 4096;     // Count-min counters per row.
  uint32_t cms_depth = 4;        // Count-min hash rows.
  uint32_t hll_precision = 12;   // 2^p HLL registers (~1.6% error at 12).
  uint32_t topk_capacity = 64;   // Heavy-hitter candidates tracked.
  // Hash-family seed. Fleet-wide constant by design: every node must use the
  // same value or per-node monitors stop being mergeable. Do NOT derive this
  // from a per-node simulation seed.
  uint64_t seed = 0x7a1c5eedULL;
};

class FlowMonitor {
 public:
  explicit FlowMonitor(const FlowMonitorConfig& config);

  // Records one packet. O(cms_depth + log topk_capacity), allocation-free.
  // Each sketch hashes the key once under its own seed; the count-min update
  // hands its post-update estimate straight to the heavy-hitter filter, and
  // the HLL sees only keys the heavy-hitter table does not already track.
  void OnPacket(const FlowKey& key, uint32_t bytes);

  // Estimators.
  double DistinctFlows() const { return hll_.Estimate(); }
  uint64_t total_packets() const { return cms_.total_packets(); }
  uint64_t total_bytes() const { return cms_.total_bytes(); }
  std::vector<sketch::SpaceSaving::Entry> TopK(size_t k) const {
    return topk_.TopK(k);
  }
  sketch::CountMinSketch::Estimate Query(const FlowKey& key) const {
    return cms_.Query(key);
  }

  const sketch::CountMinSketch& cms() const { return cms_; }
  const sketch::HyperLogLog& hll() const { return hll_; }
  const sketch::SpaceSaving& topk() const { return topk_; }

  bool Compatible(const FlowMonitor& other) const {
    return cms_.Compatible(other.cms_) && hll_.Compatible(other.hll_) &&
           topk_.Compatible(other.topk_);
  }

  // Folds `other` into this monitor (fleet roll-up). All three sketches must
  // be compatible; on mismatch nothing is merged and false is returned.
  bool Merge(const FlowMonitor& other);

  // Registers gauges under `prefix.` (e.g. "node0.flows.dp."):
  // distinct_flows, total_packets, total_bytes, cms_epsilon,
  // heavy_evictions. Pointers registered outlive via `this` — deregister
  // with registry.RemovePrefix(prefix) before the monitor dies.
  void RegisterMetrics(MetricsRegistry& registry, const std::string& prefix) const;

  // Deterministic JSON: cms/hll configs + totals, and the top `k` heavy
  // hitters sorted by bytes descending then key order.
  std::string ToJson(size_t k = 16) const;

 private:
  sketch::CountMinSketch cms_;
  sketch::HyperLogLog hll_;
  sketch::SpaceSaving topk_;
};

}  // namespace taichi::obs

#endif  // SRC_OBS_FLOW_MONITOR_H_
