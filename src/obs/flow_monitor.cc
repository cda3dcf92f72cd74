#include "src/obs/flow_monitor.h"

#include "src/obs/json.h"
#include "src/obs/metrics.h"

namespace taichi::obs {

namespace {

sketch::CountMinConfig CmsConfig(const FlowMonitorConfig& c) {
  return {.width = c.cms_width, .depth = c.cms_depth, .seed = c.seed};
}

sketch::HyperLogLogConfig HllConfig(const FlowMonitorConfig& c) {
  return {.precision = c.hll_precision, .seed = c.seed};
}

sketch::SpaceSavingConfig TopkConfig(const FlowMonitorConfig& c) {
  return {.capacity = c.topk_capacity, .seed = c.seed};
}

}  // namespace

FlowMonitor::FlowMonitor(const FlowMonitorConfig& config)
    : cms_(CmsConfig(config)), hll_(HllConfig(config)), topk_(TopkConfig(config)) {}

void FlowMonitor::Flush() const {
  // Two passes: hash every logged key once and prefetch its count-min cells,
  // so the batch's cache misses overlap; then apply each packet in order.
  sketch::HashPair hashes[kBatch];
  for (uint32_t i = 0; i < logged_; ++i) {
    hashes[i] = cms_.Hash(log_[i].key);
    cms_.Prefetch(hashes[i]);
  }
  for (uint32_t i = 0; i < logged_; ++i) {
    const Logged& p = log_[i];
    const sketch::CountMinSketch::Estimate est = cms_.Update(hashes[i], p.bytes);
    // A key the heavy-hitter table already tracks is in the HLL already: an
    // earlier packet observed it when it was admitted, or it arrived by
    // Merge, which also took the register-wise max with the sender's HLL.
    // Observing it again could not raise a register.
    if (!topk_.Update(p.key, hashes[i], p.bytes, est.bytes, est.packets)) {
      hll_.Observe(p.key);
    }
  }
  logged_ = 0;
}

bool FlowMonitor::Merge(const FlowMonitor& other) {
  if (!Compatible(other)) {
    return false;  // Sub-sketch Merge would log; refuse atomically up front.
  }
  Flush();
  other.Flush();
  bool ok = cms_.Merge(other.cms_);
  ok = hll_.Merge(other.hll_) && ok;
  ok = topk_.Merge(other.topk_) && ok;
  return ok;
}

void FlowMonitor::RegisterMetrics(MetricsRegistry& registry,
                                  const std::string& prefix) const {
  registry.AddGauge(prefix + "distinct_flows", [this] { return DistinctFlows(); });
  registry.AddCounterFn(prefix + "total_packets", [this] { return total_packets(); });
  registry.AddCounterFn(prefix + "total_bytes", [this] { return total_bytes(); });
  registry.AddGauge(prefix + "cms_epsilon", [this] { return cms_.epsilon(); });
  registry.AddCounterFn(prefix + "heavy_evictions",
                        [this] { return topk().evictions(); });
}

std::string FlowMonitor::ToJson(size_t k) const {
  std::string out = "{";
  out += "\"cms\": " + cms().ToJson();
  out += ", \"hll\": " + hll().ToJson();
  out += ", \"top\": [";
  const std::vector<sketch::SpaceSaving::Entry> top = TopK(k);
  for (size_t i = 0; i < top.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    const sketch::SpaceSaving::Entry& e = top[i];
    out += "{\"flow\": " + JsonQuote(e.key.ToString());
    out += ", \"bytes\": " + std::to_string(e.bytes);
    out += ", \"packets\": " + std::to_string(e.packets);
    out += ", \"error\": " + std::to_string(e.error);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace taichi::obs
