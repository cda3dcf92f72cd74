// Shared helpers for the per-figure/table benchmark harnesses.
#ifndef BENCH_COMMON_H_
#define BENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/exp/runners.h"
#include "src/exp/testbed.h"
#include "src/obs/json.h"
#include "src/sim/logging.h"
#include "src/sim/table.h"

namespace taichi::bench {

inline std::unique_ptr<exp::Testbed> MakeTestbed(
    exp::Mode mode, uint64_t seed = 42,
    const std::function<void(exp::TestbedConfig&)>& tweak = nullptr) {
  exp::TestbedConfig cfg;
  cfg.mode = mode;
  cfg.seed = seed;
  if (tweak) {
    tweak(cfg);
  }
  return std::make_unique<exp::Testbed>(std::move(cfg));
}

// Sustained control-plane pressure: a busy monitor/agent fleet that keeps
// runnable vCPUs contending for idle DP cycles throughout a benchmark. The
// §6.5 overheads are the cost of this donation actually happening.
inline void CpPressure(exp::TestbedConfig& cfg) {
  cfg.monitors.count = 12;
  cfg.monitors.period_mean = sim::Micros(300);
  cfg.monitors.user_work_mean = sim::Micros(60);
}

inline void PrintHeader(const char* id, const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("==============================================================\n");
}

inline std::string Pct(double value, double reference) {
  if (reference == 0) {
    return "n/a";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.2f%%", (value / reference - 1.0) * 100.0);
  return buf;
}

// The Fig. 12 / Fig. 13 paper shape, from each mechanism's change against the
// static-partition baseline in percent: Tai Chi within 1%, Tai Chi-vDP in
// [-12%, -3%] and type-2 in [-32%, -18%] (paper: -0.2% / -8% / -26% for
// CPS, -0.06% / -6% / -25.7% for IOPS). Prints the verdict on stderr, so
// stdout stays the figure alone, and returns whether the shape holds.
inline bool MechanismShapeHolds(const char* metric, double taichi_pct, double vdp_pct,
                                double type2_pct) {
  const bool ok = std::abs(taichi_pct) <= 1.0 && vdp_pct >= -12.0 && vdp_pct <= -3.0 &&
                  type2_pct >= -32.0 && type2_pct <= -18.0;
  std::fprintf(stderr,
               "%s: %s vs baseline: Tai Chi within 1%%, vDP in [-12%%, -3%%], type-2 in "
               "[-32%%, -18%%]\n",
               ok ? "PASS" : "SHAPE MISMATCH", metric);
  return ok;
}

// The Fig. 14–16 paper shape: Tai Chi's average and worst throughput
// overhead against the baseline, in percent, both below 2% (paper: 0.6% /
// 1.92% for the DP suites, 1.56% / 1.63% for MySQL, 0.51% / ~1% for Nginx).
// Prints the verdict on stderr and returns whether the shape holds.
inline bool OverheadShapeHolds(double average_pct, double worst_pct) {
  const bool ok = average_pct < 2.0 && worst_pct < 2.0;
  std::fprintf(stderr, "%s: average and peak throughput overhead below 2%%\n",
               ok ? "PASS" : "SHAPE MISMATCH");
  return ok;
}

// Machine-readable bench output. Every harness constructs one of these with
// its argv; when the user passed `--json <path>`, key/value pairs recorded
// via Config()/Metric() are written to `path` as
//   {"bench": "<name>", "config": {...}, "metrics": {...}}
// on Write() (call it last in main). Without --json this is all a no-op, so
// the human-readable tables stay the default. Values are emitted in
// insertion order and deterministically formatted: same seed, same bytes.
class JsonReport {
 public:
  JsonReport(std::string bench_name, int argc, char** argv)
      : bench_(std::move(bench_name)) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--json") {
        path_ = argv[i + 1];
        break;
      }
    }
  }

  // Sidecar report with an explicit path (empty = disabled). Used for
  // host-dependent measurements (wall clock, thread count) that must stay
  // out of the deterministic main report.
  JsonReport(std::string bench_name, std::string path)
      : bench_(std::move(bench_name)), path_(std::move(path)) {}

  bool requested() const { return !path_.empty(); }

  // Each recorder returns at once without --json, allocating nothing.
  void Config(std::string_view key, const std::string& value) {
    if (requested()) {
      config_.emplace_back(key, Quote(value));
    }
  }
  void Config(std::string_view key, double value) {
    if (requested()) {
      config_.emplace_back(key, Num(value));
    }
  }
  void Config(std::string_view key, int64_t value) {
    if (requested()) {
      config_.emplace_back(key, std::to_string(value));
    }
  }
  void Config(std::string_view key, bool value) {
    if (requested()) {
      config_.emplace_back(key, value ? "true" : "false");
    }
  }

  void Metric(std::string_view key, double value) {
    if (requested()) {
      metrics_.emplace_back(key, Num(value));
    }
  }
  void Metric(std::string_view key, int64_t value) {
    if (requested()) {
      metrics_.emplace_back(key, std::to_string(value));
    }
  }
  // Flattens a latency summary into <key>.{count,mean,p50,p90,p99,max}.
  void Metric(std::string_view key_view, const sim::Summary& summary) {
    if (!requested()) {
      return;
    }
    const std::string key(key_view);
    Metric(key + ".count", static_cast<int64_t>(summary.count()));
    if (summary.empty()) {
      return;
    }
    Metric(key + ".mean", summary.mean());
    Metric(key + ".p50", summary.Percentile(50));
    Metric(key + ".p90", summary.Percentile(90));
    Metric(key + ".p99", summary.Percentile(99));
    Metric(key + ".max", summary.max());
  }

  // Writes the report if --json was given. Returns false only on I/O error.
  bool Write() const {
    if (path_.empty()) {
      return true;
    }
    std::string out = "{\n  \"bench\": " + Quote(bench_) + ",\n";
    AppendSection(out, "config", config_);
    out += ",\n";
    AppendSection(out, "metrics", metrics_);
    out += "\n}\n";
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      TAICHI_ERROR(0, "bench: cannot open '%s' for writing", path_.c_str());
      return false;
    }
    size_t written = std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    if (written != out.size()) {
      TAICHI_ERROR(0, "bench: short write to '%s'", path_.c_str());
      return false;
    }
    return true;
  }

 private:
  using Entries = std::vector<std::pair<std::string, std::string>>;

  static std::string Num(double v) {
    if (!std::isfinite(v)) {
      return "0";
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
  }

  // Shared with the metric/trace exporters: the old hand-rolled quoting here
  // left control characters unescaped, producing invalid JSON.
  static std::string Quote(const std::string& s) { return obs::JsonQuote(s); }

  static void AppendSection(std::string& out, const char* name, const Entries& entries) {
    out += "  \"";
    out += name;
    out += "\": {";
    for (size_t i = 0; i < entries.size(); ++i) {
      out += i == 0 ? "\n" : ",\n";
      out += "    " + Quote(entries[i].first) + ": " + entries[i].second;
    }
    out += entries.empty() ? "}" : "\n  }";
  }

  std::string bench_;
  std::string path_;
  Entries config_;
  Entries metrics_;
};

}  // namespace taichi::bench

#endif  // BENCH_COMMON_H_
