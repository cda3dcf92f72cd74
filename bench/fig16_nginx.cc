// Figure 16: Nginx requests per second under high connection concurrency
// (wrk), HTTP and HTTPS, long and short connections. Paper: 0.51% average
// overhead for Tai Chi, up to ~1% for short-connection scenarios.
//
// Exits 1 on a shape mismatch: average or worst overhead across the four
// scenarios at or above 2%. The verdict goes to stderr, so stdout stays the
// figure alone.
#include "bench/common.h"
#include "src/apps/nginx_sim.h"

using namespace taichi;

int main(int argc, char** argv) {
  bench::PrintHeader("Figure 16", "Nginx (wrk, high concurrency): Tai Chi vs baseline");
  bench::JsonReport json("fig16_nginx", argc, argv);
  json.Config("connections", static_cast<int64_t>(apps::NginxConfig{}.connections));
  json.Config("seed", static_cast<int64_t>(42));

  struct Scenario {
    const char* name;
    const char* key;  // JSON metric prefix.
    bool https;
    bool short_conn;
  };
  const std::vector<Scenario> kScenarios = {
      {"HTTP long", "http_long", false, false},
      {"HTTP short", "http_short", false, true},
      {"HTTPS long", "https_long", true, false},
      {"HTTPS short", "https_short", true, true},
  };

  sim::Table t({"Scenario", "Baseline (req/s)", "Tai Chi (req/s)", "Overhead"});
  double sum = 0;
  double worst = 0;
  for (const Scenario& s : kScenarios) {
    auto run = [&](exp::Mode mode) {
      auto bed = bench::MakeTestbed(mode);
      bed->SpawnBackgroundCp();
      bed->sim().RunFor(sim::Millis(2));
      apps::NginxConfig ncfg;
      ncfg.https = s.https;
      ncfg.short_connection = s.short_conn;
      apps::NginxSim nginx(bed.get(), ncfg);
      return nginx.Run(sim::Millis(100), sim::Millis(30));
    };
    apps::NginxResult base = run(exp::Mode::kBaseline);
    apps::NginxResult taichi = run(exp::Mode::kTaiChi);
    double overhead = (1.0 - taichi.requests_per_sec / base.requests_per_sec) * 100.0;
    sum += overhead;
    worst = std::max(worst, overhead);
    t.AddRow({s.name, sim::Table::Num(base.requests_per_sec, 0),
              sim::Table::Num(taichi.requests_per_sec, 0),
              sim::Table::Num(overhead, 2) + "%"});
    if (json.requested()) {  // Builds no key strings without --json.
      const std::string key = s.key;
      json.Metric(key + ".baseline_rps", base.requests_per_sec);
      json.Metric(key + ".taichi_rps", taichi.requests_per_sec);
      json.Metric(key + ".overhead_pct", overhead);
    }
  }
  t.Print();
  const double average = sum / kScenarios.size();
  std::printf("\nmeasured: avg %.2f%%, worst %.2f%%\n", average, worst);
  std::printf("paper: 0.51%% average overhead, up to ~1%% in short-connection scenarios\n");
  json.Metric("throughput_overhead.avg_pct", average);
  json.Metric("throughput_overhead.peak_pct", worst);
  if (!json.Write()) {
    return 1;
  }
  return bench::OverheadShapeHolds(average, worst) ? 0 : 1;
}
