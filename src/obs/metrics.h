// Central metrics registry: every component registers its named
// counters/gauges/summaries here, and the registry can be
// snapshotted at any simulated time and exported as JSON.
//
// The registry does not own metric storage — components keep their metric
// members (so their existing accessors stay cheap) and register *pointers*.
// A registered pointer must stay valid until the metric is removed or the
// registry is destroyed; in practice the registry is built next to the
// simulation objects and snapshotted before teardown.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace taichi::obs {

// One exported metric value, flattened for serialization.
struct MetricSample {
  enum class Kind : uint8_t { kCounter, kGauge, kSummary };

  std::string name;
  Kind kind = Kind::kCounter;
  uint64_t count = 0;  // Counter value, or sample count for summaries.
  double value = 0;    // Gauge value.
  // Summary statistics (valid when kind == kSummary and count > 0).
  double min = 0, mean = 0, max = 0, p50 = 0, p90 = 0, p99 = 0, sum = 0;
};

const char* ToString(MetricSample::Kind kind);

// A point-in-time copy of every registered metric.
struct MetricsSnapshot {
  sim::SimTime at = 0;
  std::vector<MetricSample> samples;  // Sorted by name.

  const MetricSample* Find(const std::string& name) const;
  std::string ToJson() const;
  // Serializes ToJson() to `path`. Returns false (and logs a TAICHI_ERROR)
  // on failure.
  bool WriteFile(const std::string& path) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registration. Re-registering an existing name is a misuse (it usually
  // means two components picked the same prefix); the registry logs a
  // TAICHI_ERROR and replaces the previous entry.
  void AddCounter(const std::string& name, const sim::Counter* counter);
  // Derived counters (e.g. sums over sub-objects) register a callback.
  void AddCounterFn(const std::string& name, std::function<uint64_t()> fn);
  void AddGauge(const std::string& name, std::function<double()> fn);
  void AddSummary(const std::string& name, const sim::Summary* summary);

  // Deregistration, for components that die before the registry.
  void Remove(const std::string& name);
  void RemovePrefix(const std::string& prefix);
  // Drops every registration. For host-side registries that outlive their
  // simulated node (a fleet node crash destroys the Testbed and everything
  // registered from it); the registry must never keep pointers into freed
  // components, and a restarted node re-registers from scratch.
  void Clear() { metrics_.clear(); }

  bool Has(const std::string& name) const { return metrics_.contains(name); }
  size_t size() const { return metrics_.size(); }

  // The registered summary under `name`, or nullptr if `name` is absent or
  // not a summary. Fleet aggregation reads per-node summaries through this.
  const sim::Summary* FindSummary(const std::string& name) const;

  MetricsSnapshot Snapshot(sim::SimTime at) const;

 private:
  struct Entry {
    MetricSample::Kind kind = MetricSample::Kind::kCounter;
    const sim::Counter* counter = nullptr;
    const sim::Summary* summary = nullptr;
    std::function<uint64_t()> counter_fn;
    std::function<double()> gauge_fn;
  };

  void Add(const std::string& name, Entry entry);

  std::map<std::string, Entry> metrics_;  // Ordered: exports are sorted.
};

// --- Fleet aggregation -------------------------------------------------------

// Merges several per-node summaries into one by adding their buckets, so the
// fleet summary is bucket for bucket the one that would have observed the
// union of the samples: its percentiles keep Summary's 2^-8 bound over the
// union instead of being approximated from per-node percentiles. Null
// entries are skipped.
sim::Summary MergeSummaries(const std::vector<const sim::Summary*>& parts);

}  // namespace taichi::obs

#endif  // SRC_OBS_METRICS_H_
