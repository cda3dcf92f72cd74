// Figure 17: average VM startup time vs instance density, with and without
// Tai Chi. Paper: Tai Chi reduces average startup latency ~3.1x in
// high-density environments by running device-management CP tasks on vCPUs
// fed by idle DP cycles.
//
// Exits 1 on a shape mismatch: the 4x reduction below 2.5x, the 4x baseline
// not above the startup SLO or Tai Chi not below it, or a 1x reduction
// outside [0.95, 1.05] (at low density there is nothing to win).
#include "bench/common.h"

using namespace taichi;

namespace {
constexpr double kStartupSloMs = 160.0;
constexpr double kHostInstantiateMs = 60.0;
}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader("Figure 17", "VM startup vs density: baseline vs Tai Chi");

  bench::JsonReport json("fig17_vm_startup", argc, argv);
  json.Config("num_vms", static_cast<int64_t>(60));
  json.Config("slo_ms", kStartupSloMs);
  sim::Table t({"Density", "Baseline (ms)", "Base/SLO", "Tai Chi (ms)", "TaiChi/SLO",
                "Reduction"});
  double base_4x = 0, taichi_4x = 0, reduction_1x = 0;
  for (int density : {1, 2, 3, 4}) {
    auto run = [&](exp::Mode mode) {
      auto bed = bench::MakeTestbed(mode, 42 + density, [density](exp::TestbedConfig& cfg) {
        cfg.vm_startup.devices_per_vm = 6 * density;
        cfg.monitors.count = 6 * density;
      });
      exp::VmStartupResult r = exp::RunVmStartupStorm(
          bed.get(), /*num_vms=*/60, /*arrival_rate_per_sec=*/50.0 * density,
          /*dp_utilization=*/0.25);
      return r.startup_ms.mean() + kHostInstantiateMs;
    };
    double base = run(exp::Mode::kBaseline);
    double taichi = run(exp::Mode::kTaiChi);
    t.AddRow({std::to_string(density) + "x", sim::Table::Num(base, 1),
              sim::Table::Num(base / kStartupSloMs, 2), sim::Table::Num(taichi, 1),
              sim::Table::Num(taichi / kStartupSloMs, 2),
              sim::Table::Num(base / taichi, 2) + "x"});
    const std::string prefix = "density_" + std::to_string(density) + "x.";
    json.Metric(prefix + "baseline_ms", base);
    json.Metric(prefix + "taichi_ms", taichi);
    json.Metric(prefix + "reduction", base / taichi);
    if (density == 1) {
      reduction_1x = base / taichi;
    } else if (density == 4) {
      base_4x = base;
      taichi_4x = taichi;
    }
  }
  t.Print();
  std::printf("\npaper: ~3.1x startup reduction at high instance density\n");
  if (!json.Write()) {
    return 1;
  }

  const bool shape_ok = base_4x / taichi_4x >= 2.5 && base_4x > kStartupSloMs &&
                        taichi_4x < kStartupSloMs && reduction_1x >= 0.95 &&
                        reduction_1x <= 1.05;
  std::printf("%s: >= 2.5x reduction at 4x density, where only Tai Chi meets the %.0f ms "
              "SLO; no change at 1x\n",
              shape_ok ? "PASS" : "SHAPE MISMATCH", kStartupSloMs);
  return shape_ok ? 0 : 1;
}
