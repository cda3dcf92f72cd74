// Scenario suite: named end-to-end experiments (adversarial traffic, chaos
// injection) with deterministic pass/fail verdicts.
//
//   scenario_suite --list
//   scenario_suite --scenario ddos --json out.json
//
// Every verdict is a pure function of (scenario, nodes, seed, duration):
// the JSON carries no thread count and no wall clock, so CI compares the
// bytes produced with --threads 1 against --threads 4 with `cmp`. The
// process exits nonzero when any requested scenario fails its expectations
// — the suite is a gate, not just a report.
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/scenario/library.h"

using namespace taichi;

namespace {

void PrintVerdict(const scenario::ScenarioVerdict& v) {
  std::printf("\n--- %s: %s ---\n", v.scenario.c_str(), v.pass ? "PASS" : "FAIL");
  std::printf("  windows: %zu  breaches: %zu  hotspot: %zu  attributed: %zu\n",
              v.windows, v.breach_windows, v.hotspot_windows, v.attributed_windows);
  std::printf("  samples: %zu  worst fleet pctl: %.1f ms  last: %.1f ms\n",
              v.total_samples, v.worst_fleet_value, v.last_fleet_value);
  if (v.crashes + v.restarts + v.stalls + v.floods + v.storms > 0) {
    std::printf("  chaos: %d crashes, %d restarts, %d stalls, %d floods, %d storms\n",
                v.crashes, v.restarts, v.stalls, v.floods, v.storms);
  }
  if (v.autopilot.engaged) {
    const scenario::ScenarioVerdict::AutopilotStats& a = v.autopilot;
    std::printf("  autopilot: recovery %zu windows, worst streak %zu\n",
                a.recovery_windows, a.max_breach_streak);
    std::printf(
        "  autopilot: %llu enables, %llu migrations, %llu boosts/%llu reverts, "
        "%llu sheds/%llu restores, %llu evict/%llu readmit, %llu backoffs\n",
        static_cast<unsigned long long>(a.enables),
        static_cast<unsigned long long>(a.migrations),
        static_cast<unsigned long long>(a.dp_boosts),
        static_cast<unsigned long long>(a.dp_reverts),
        static_cast<unsigned long long>(a.sheds),
        static_cast<unsigned long long>(a.restores),
        static_cast<unsigned long long>(a.evictions),
        static_cast<unsigned long long>(a.readmits),
        static_cast<unsigned long long>(a.backoffs));
    std::printf("  autopilot: %d nodes / %d vCPUs on Tai Chi at end (static: %d)\n",
                a.enabled_nodes, a.enabled_vcpus, a.static_vcpus);
    for (const fleet::Autopilot::Decision& d : a.decisions) {
      std::printf("    [%8.1f ms] %-9s node %2d%s%s  (%.2f)\n",
                  sim::ToSeconds(d.at) * 1e3, fleet::ToString(d.act), d.node,
                  d.target >= 0 ? " -> " : "",
                  d.target >= 0 ? std::to_string(d.target).c_str() : "", d.value);
    }
  }
  for (const scenario::ScenarioCheck& c : v.checks) {
    std::printf("  [%s] %-20s %s\n", c.pass ? "ok" : "XX", c.name.c_str(),
                c.detail.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> requested;
  std::string json_path;
  bool verbose = false;
  scenario::ScenarioOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--verbose") {
      verbose = true;
      continue;
    }
    if (arg == "--no-autopilot") {
      // The static counterfactual for the autopilot-* scenarios: same
      // fleet, fault and clock, nobody healing. CI compares the two runs.
      opts.autopilot = false;
      continue;
    }
    if (arg == "--list") {
      for (const std::string& name : scenario::ScenarioNames()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return 2;
    }
    if (arg == "--scenario") {
      requested.push_back(argv[++i]);
    } else if (arg == "--json") {
      json_path = argv[++i];
    } else if (arg == "--nodes") {
      opts.nodes = std::atoi(argv[++i]);
    } else if (arg == "--density") {
      opts.density = std::atoi(argv[++i]);
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--threads") {
      opts.threads = std::atoi(argv[++i]);
    } else if (arg == "--duration-ms") {
      opts.observed = sim::Millis(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (requested.empty()) {
    requested = scenario::ScenarioNames();
  }

  bench::PrintHeader("Scenario suite", "adversarial traffic and chaos injection");

  std::vector<scenario::ScenarioVerdict> verdicts;
  for (const std::string& name : requested) {
    scenario::ScenarioSpec spec = scenario::BuildScenario(name, opts);
    if (spec.name.empty()) {
      std::fprintf(stderr, "unknown scenario '%s' (try --list)\n", name.c_str());
      return 2;
    }

    scenario::ScenarioRunner runner(std::move(spec));
    scenario::ScenarioVerdict v = runner.Run();
    PrintVerdict(v);
    if (verbose) {
      for (size_t w = 0; w < runner.window_reports().size(); ++w) {
        const fleet::SloMonitor::Report& r = runner.window_reports()[w];
        std::printf("  window %zu @ %.0f ms: fleet pctl %.1f ms (%zu samples)%s\n", w,
                    sim::ToSeconds(r.at) * 1e3, r.fleet_value, r.total_samples,
                    r.fleet_breach ? " BREACH" : "");
        for (size_t n = 0; n < r.nodes.size(); ++n) {
          const fleet::SloMonitor::NodeStat& s = r.nodes[n];
          std::printf("    node %2zu: %3zu samples, pctl %7.1f ms%s%s\n", n, s.samples,
                      s.value, s.breach ? " breach" : "", s.hotspot ? " HOTSPOT" : "");
          for (const fleet::SloMonitor::HeavyFlow& f : s.heavy) {
            std::printf("      heavy: %s  %.1f%%%s\n", f.key.ToString().c_str(),
                        100.0 * f.share,
                        scenario::IsAttackFlow(f) ? "  << attack range" : "");
          }
        }
      }
    }
    verdicts.push_back(std::move(v));
  }

  bool all_pass = true;
  for (const scenario::ScenarioVerdict& v : verdicts) {
    all_pass = all_pass && v.pass;
  }

  if (!json_path.empty()) {
    // One scenario: its verdict verbatim (easy to gate on). Several: a
    // suite wrapper. Either way: no thread count, no wall clock — the same
    // invocation at any --threads value writes the same bytes.
    std::string out;
    if (verdicts.size() == 1) {
      out = verdicts[0].ToJson();
    } else {
      out = "{\"suite\":[";
      for (size_t i = 0; i < verdicts.size(); ++i) {
        std::string one = verdicts[i].ToJson();
        while (!one.empty() && one.back() == '\n') {
          one.pop_back();
        }
        out += (i == 0 ? "" : ",") + one;
      }
      out += "]}\n";
    }
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open '%s' for writing\n", json_path.c_str());
      return 2;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
  }

  std::printf("\n%s\n", all_pass ? "PASS: all scenario expectations held"
                                 : "FAIL: a scenario missed its expectations");
  return all_pass ? 0 : 1;
}
