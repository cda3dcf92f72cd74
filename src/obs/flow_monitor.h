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
//
// OnPacket only logs the packet; the sketches see the log kBatch packets at
// a time, in arrival order, when it fills and before any read. Every read
// (the accessors, the estimators, Merge on both sides, ToJson and the
// registered gauges) applies the log first, so it sees exactly the state
// per-packet updates would have left. A read may therefore write: a monitor
// is read only by the thread that steps its node, or by anyone after the
// epoch barrier — never while its node is stepping on another thread.
#ifndef SRC_OBS_FLOW_MONITOR_H_
#define SRC_OBS_FLOW_MONITOR_H_

#include <array>
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

  // Records one packet: appends it to the log, and applies the log when
  // that fills. Amortized O(cms_depth + log topk_capacity), allocation-free.
  void OnPacket(const FlowKey& key, uint32_t bytes) {
    log_[logged_] = {key, bytes};
    if (++logged_ == kBatch) {
      Flush();
    }
  }

  // Estimators.
  double DistinctFlows() const { return hll().Estimate(); }
  uint64_t total_packets() const { return cms().total_packets(); }
  uint64_t total_bytes() const { return cms().total_bytes(); }
  std::vector<sketch::SpaceSaving::Entry> TopK(size_t k) const {
    return topk().TopK(k);
  }
  sketch::CountMinSketch::Estimate Query(const FlowKey& key) const {
    return cms().Query(key);
  }

  // The sketches, with every logged packet applied.
  const sketch::CountMinSketch& cms() const {
    Flush();
    return cms_;
  }
  const sketch::HyperLogLog& hll() const {
    Flush();
    return hll_;
  }
  const sketch::SpaceSaving& topk() const {
    Flush();
    return topk_;
  }

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
  // The DP burst size: one burst's taps fill the log about once.
  static constexpr uint32_t kBatch = 32;

  struct Logged {
    FlowKey key;
    uint32_t bytes = 0;
  };

  // Applies the logged packets in arrival order and empties the log.
  void Flush() const;

  mutable std::array<Logged, kBatch> log_;
  mutable uint32_t logged_ = 0;
  mutable sketch::CountMinSketch cms_;
  mutable sketch::HyperLogLog hll_;
  mutable sketch::SpaceSaving topk_;
};

}  // namespace taichi::obs

#endif  // SRC_OBS_FLOW_MONITOR_H_
