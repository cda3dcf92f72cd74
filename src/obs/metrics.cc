#include "src/obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "src/obs/json.h"
#include "src/sim/logging.h"

namespace taichi::obs {
namespace {

// Numbers in exports: plain, locale-independent, finite (shared formatter).
std::string Num(double v) { return JsonNum(v); }
std::string Num(uint64_t v) { return JsonNum(v); }

}  // namespace

const char* ToString(MetricSample::Kind kind) {
  switch (kind) {
    case MetricSample::Kind::kCounter:
      return "counter";
    case MetricSample::Kind::kGauge:
      return "gauge";
    case MetricSample::Kind::kSummary:
      return "summary";
  }
  return "?";
}

// ---- MetricsRegistry ---------------------------------------------------------

void MetricsRegistry::Add(const std::string& name, Entry entry) {
  auto [it, inserted] = metrics_.try_emplace(name, std::move(entry));
  if (!inserted) {
    TAICHI_ERROR(0, "metrics: duplicate registration of '%s' replaces the previous metric",
                 name.c_str());
    it->second = std::move(entry);
  }
}

void MetricsRegistry::AddCounter(const std::string& name, const sim::Counter* counter) {
  Entry e;
  e.kind = MetricSample::Kind::kCounter;
  e.counter = counter;
  Add(name, std::move(e));
}

void MetricsRegistry::AddCounterFn(const std::string& name, std::function<uint64_t()> fn) {
  Entry e;
  e.kind = MetricSample::Kind::kCounter;
  e.counter_fn = std::move(fn);
  Add(name, std::move(e));
}

void MetricsRegistry::AddGauge(const std::string& name, std::function<double()> fn) {
  Entry e;
  e.kind = MetricSample::Kind::kGauge;
  e.gauge_fn = std::move(fn);
  Add(name, std::move(e));
}

void MetricsRegistry::AddSummary(const std::string& name, const sim::Summary* summary) {
  Entry e;
  e.kind = MetricSample::Kind::kSummary;
  e.summary = summary;
  Add(name, std::move(e));
}

void MetricsRegistry::Remove(const std::string& name) { metrics_.erase(name); }

const sim::Summary* MetricsRegistry::FindSummary(const std::string& name) const {
  auto it = metrics_.find(name);
  if (it == metrics_.end() || it->second.kind != MetricSample::Kind::kSummary) {
    return nullptr;
  }
  return it->second.summary;
}

void MetricsRegistry::RemovePrefix(const std::string& prefix) {
  for (auto it = metrics_.lower_bound(prefix); it != metrics_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    it = metrics_.erase(it);
  }
}

MetricsSnapshot MetricsRegistry::Snapshot(sim::SimTime at) const {
  MetricsSnapshot snap;
  snap.at = at;
  snap.samples.reserve(metrics_.size());
  for (const auto& [name, entry] : metrics_) {
    MetricSample s;
    s.name = name;
    s.kind = entry.kind;
    switch (entry.kind) {
      case MetricSample::Kind::kCounter:
        s.count = entry.counter != nullptr ? entry.counter->value() : entry.counter_fn();
        break;
      case MetricSample::Kind::kGauge:
        s.value = entry.gauge_fn();
        break;
      case MetricSample::Kind::kSummary: {
        const sim::Summary& sum = *entry.summary;
        s.count = sum.count();
        if (!sum.empty()) {
          s.min = sum.min();
          s.mean = sum.mean();
          s.max = sum.max();
          s.p50 = sum.Percentile(50);
          s.p90 = sum.Percentile(90);
          s.p99 = sum.Percentile(99);
          s.sum = sum.sum();
        }
        break;
      }
    }
    snap.samples.push_back(std::move(s));
  }
  return snap;
}

// ---- MetricsSnapshot ---------------------------------------------------------

const MetricSample* MetricsSnapshot::Find(const std::string& name) const {
  for (const MetricSample& s : samples) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"at_ns\": " + Num(static_cast<uint64_t>(at)) +
                    ",\n  \"metrics\": {\n";
  for (size_t i = 0; i < samples.size(); ++i) {
    const MetricSample& s = samples[i];
    out += "    \"" + JsonEscape(s.name) + "\": {\"kind\": \"";
    out += ToString(s.kind);
    out += "\"";
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        out += ", \"value\": " + Num(s.count);
        break;
      case MetricSample::Kind::kGauge:
        out += ", \"value\": " + Num(s.value);
        break;
      case MetricSample::Kind::kSummary:
        out += ", \"count\": " + Num(s.count) + ", \"min\": " + Num(s.min) +
               ", \"mean\": " + Num(s.mean) + ", \"max\": " + Num(s.max) +
               ", \"p50\": " + Num(s.p50) + ", \"p90\": " + Num(s.p90) +
               ", \"p99\": " + Num(s.p99) + ", \"sum\": " + Num(s.sum);
        break;
    }
    out += "}";
    out += (i + 1 < samples.size()) ? ",\n" : "\n";
  }
  out += "  }\n}\n";
  return out;
}

sim::Summary MergeSummaries(const std::vector<const sim::Summary*>& parts) {
  sim::Summary merged;
  for (const sim::Summary* part : parts) {
    if (part == nullptr) {
      continue;
    }
    merged.Merge(*part);
  }
  return merged;
}

bool MetricsSnapshot::WriteFile(const std::string& path) const {
  const std::string body = ToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    TAICHI_ERROR(at, "metrics: cannot open '%s' for writing", path.c_str());
    return false;
  }
  size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (written != body.size()) {
    TAICHI_ERROR(at, "metrics: short write to '%s'", path.c_str());
    return false;
  }
  return true;
}

}  // namespace taichi::obs
