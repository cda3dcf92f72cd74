// §8 "Enhanced data-plane performance": in low CP-demand environments,
// Tai Chi's dynamic partitioning reallocates 50% of the CP's physical CPUs
// (4 -> 2) to the data plane. Paper: +39% peak IOPS and +43% connections
// per second, while CP performance stays at baseline levels thanks to idle
// DP cycle stealing.
//
// Exits 1 on a shape mismatch: peak IOPS or CPS gaining less than 15% (model
// +25.0% / +24.8%, paper +39% / +43%), or the mean synth_cp execution time
// rising above the baseline's (model -21.0%). The verdict goes to stderr, so
// stdout stays the table alone.
#include "bench/common.h"

using namespace taichi;

namespace {

struct Shape {
  int dp_cpus;
  exp::Mode mode;
  const char* name;
};

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader("Section 8", "inverse repartitioning: +DP CPUs, CP on idle cycles");

  bench::JsonReport json("sec8_dp_boost", argc, argv);
  json.Config("baseline_dp_cpus", static_cast<int64_t>(8));
  json.Config("boost_dp_cpus", static_cast<int64_t>(10));

  const Shape kBaselineShape{8, exp::Mode::kBaseline, "baseline 8 DP / 4 CP"};
  const Shape kBoostShape{10, exp::Mode::kTaiChi, "Tai Chi 10 DP / 2 CP"};

  sim::Table t({"Configuration", "peak IOPS", "CPS", "synth_cp avg (ms)"});
  double base_iops = 0, base_cps = 0, base_cp = 0;
  double boost_iops = 0, boost_cps = 0, boost_cp = 0;
  for (const Shape& shape : {kBaselineShape, kBoostShape}) {
    double iops, cps, cp_ms;
    {
      auto bed = bench::MakeTestbed(shape.mode, 42, [&](exp::TestbedConfig& cfg) {
        cfg.dp_cpu_count = shape.dp_cpus;
        cfg.taichi.num_vcpus = shape.dp_cpus;
      });
      exp::FioConfig fcfg;
      fcfg.threads = 16;
      fcfg.iodepth = 32;
      exp::FioRunner fio(bed.get(), fcfg);
      iops = fio.Run(sim::Millis(60), sim::Millis(20)).iops;
    }
    {
      auto bed = bench::MakeTestbed(shape.mode, 43, [&](exp::TestbedConfig& cfg) {
        cfg.dp_cpu_count = shape.dp_cpus;
        cfg.taichi.num_vcpus = shape.dp_cpus;
      });
      exp::RrConfig rcfg;
      rcfg.connections = 256;
      rcfg.round_trips_per_txn = 3;
      rcfg.setup_dp_cost_ns = 1500;
      exp::RrRunner rr(bed.get(), rcfg);
      cps = rr.Run(sim::Millis(60), sim::Millis(20)).txn_per_sec;
    }
    {
      // Low CP demand: 6 concurrent tasks; DP mostly idle (10% util).
      auto bed = bench::MakeTestbed(shape.mode, 44, [&](exp::TestbedConfig& cfg) {
        cfg.dp_cpu_count = shape.dp_cpus;
        cfg.taichi.num_vcpus = shape.dp_cpus;
      });
      cp_ms = exp::RunSynthCp(bed.get(), 6, 0.10).exec_time_ms.mean();
    }
    if (shape.dp_cpus == 8) {
      base_iops = iops;
      base_cps = cps;
      base_cp = cp_ms;
    } else {
      boost_iops = iops;
      boost_cps = cps;
      boost_cp = cp_ms;
    }
    t.AddRow({shape.name, sim::Table::Num(iops, 0), sim::Table::Num(cps, 0),
              sim::Table::Num(cp_ms, 1)});
  }
  t.Print();
  std::printf("\nmeasured: IOPS %s, CPS %s, CP exec %s vs baseline\n",
              bench::Pct(boost_iops, base_iops).c_str(),
              bench::Pct(boost_cps, base_cps).c_str(),
              bench::Pct(boost_cp, base_cp).c_str());
  std::printf("paper: +39%% peak IOPS, +43%% CPS, CP performance consistent with baseline\n");

  // Boost vs baseline, in percent.
  const double iops_gain = (boost_iops / base_iops - 1.0) * 100.0;
  const double cps_gain = (boost_cps / base_cps - 1.0) * 100.0;
  const double cp_change = (boost_cp / base_cp - 1.0) * 100.0;
  json.Metric("baseline.iops", base_iops);
  json.Metric("baseline.cps", base_cps);
  json.Metric("baseline.synth_cp_avg_ms", base_cp);
  json.Metric("boost.iops", boost_iops);
  json.Metric("boost.cps", boost_cps);
  json.Metric("boost.synth_cp_avg_ms", boost_cp);
  json.Metric("iops_gain_pct", iops_gain);
  json.Metric("cps_gain_pct", cps_gain);
  json.Metric("synth_cp_change_pct", cp_change);
  if (!json.Write()) {
    return 1;
  }
  const bool shape_ok = iops_gain >= 15.0 && cps_gain >= 15.0 && boost_cp <= base_cp;
  std::fprintf(stderr,
               "%s: IOPS and CPS each gain at least 15%%, synth_cp is no slower than the "
               "baseline\n",
               shape_ok ? "PASS" : "SHAPE MISMATCH");
  return shape_ok ? 0 : 1;
}
