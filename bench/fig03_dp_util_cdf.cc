// Figure 3: CDF of data-plane CPU utilization across the fleet.
// Paper: 1.2M per-second samples; 99.68% of values below 32.5% (67.5% of
// CPU cycles idle at the p99 provisioning point).
//
// Runs on the fleet layer: a 12-node cluster in one deterministic
// simulation, each (node, CPU) drawing its average load from the lognormal
// fleet mix and carrying bursty traffic at that level. Per-second
// utilization is sampled exactly as the production collector does, via a
// cluster epoch hook with a one-second epoch.
#include "bench/common.h"
#include "src/fleet/cluster.h"
#include "src/fleet/load_gen.h"

using namespace taichi;

int main(int argc, char** argv) {
  bench::PrintHeader("Figure 3", "CDF of data-plane CPU utilization (per-second samples)");

  constexpr int kNodes = 12;
  constexpr int kSeconds = 20;

  fleet::ClusterConfig ccfg;
  ccfg.num_nodes = kNodes;
  ccfg.seed = 2024;
  ccfg.epoch = sim::Seconds(1);  // The per-second collector cadence.
  ccfg.node.mode = exp::Mode::kBaseline;
  fleet::Cluster cluster(ccfg);

  fleet::LoadGenConfig lcfg;
  lcfg.seed = 2024;
  lcfg.vm_arrivals = false;   // Fig. 3 measures the data plane only.
  lcfg.spawn_monitors = false;
  fleet::LoadGen load(&cluster, lcfg);
  load.Start();

  sim::Summary cdf;
  std::vector<std::vector<sim::Duration>> last_work(kNodes);
  for (int n = 0; n < kNodes; ++n) {
    last_work[n].assign(cluster.node(n).service_count(), 0);
  }
  cluster.AddEpochHook([&](sim::SimTime) {
    for (int n = 0; n < kNodes; ++n) {
      exp::Testbed& bed = cluster.node(n);
      for (size_t i = 0; i < bed.service_count(); ++i) {
        sim::Duration work = bed.service(i).work_time();
        cdf.Add(sim::ToSeconds(work - last_work[n][i]) * 100.0);
        last_work[n][i] = work;
      }
    }
  });
  cluster.RunFor(sim::Seconds(kSeconds));
  load.Stop();

  sim::Table t({"Utilization threshold (%)", "Fraction of samples below"});
  for (double x : {5.0, 10.0, 15.0, 20.0, 25.0, 32.5, 40.0, 50.0, 75.0}) {
    t.AddRow({sim::Table::Num(x, 1), sim::Table::Num(cdf.FractionBelow(x) * 100.0, 2) + "%"});
  }
  t.Print();
  std::printf("\nSamples: %zu   paper: 99.68%% of samples below 32.5%% utilization\n",
              cdf.count());
  std::printf("measured: %.2f%% of samples below 32.5%% -> %.1f%% idle cycles at p99\n",
              cdf.FractionBelow(32.5) * 100.0, 100.0 - 32.5);

  bench::JsonReport json("fig03_dp_util_cdf", argc, argv);
  json.Config("nodes", static_cast<int64_t>(kNodes));
  json.Config("seconds", static_cast<int64_t>(kSeconds));
  json.Config("seed", static_cast<int64_t>(ccfg.seed));
  json.Metric("samples", static_cast<int64_t>(cdf.count()));
  for (double x : {10.0, 25.0, 32.5, 50.0}) {
    char key[48];
    std::snprintf(key, sizeof(key), "fraction_below_%.1f_pct", x);
    json.Metric(key, cdf.FractionBelow(x));
  }
  json.Metric("p99_util_pct", cdf.Percentile(99));
  return json.Write() ? 0 : 1;
}
