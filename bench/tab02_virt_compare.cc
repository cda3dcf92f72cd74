// Table 2: traditional type-1 / type-2 virtualization vs Tai Chi's hybrid
// virtualization. Static properties come from the architecture; DP
// performance is measured with the tcp_crr harness of Fig. 12.
//
// Exits 1 on a shape mismatch, with Fig. 12's CPS bands: Tai Chi more than
// 1% from the static baseline, type-1 (the vDP mode) outside [-12%, -3%] of
// it, or type-2 outside [-32%, -18%]. The verdict goes to stderr, so stdout
// stays the table alone.
#include "bench/common.h"

using namespace taichi;

namespace {

double MeasureCps(exp::Mode mode) {
  auto bed = bench::MakeTestbed(mode);
  bed->SpawnBackgroundCp();
  bed->sim().RunFor(sim::Millis(2));
  exp::RrConfig rcfg;
  rcfg.connections = 256;
  rcfg.round_trips_per_txn = 3;
  rcfg.setup_dp_cost_ns = 1500;
  exp::RrRunner rr(bed.get(), rcfg);
  return rr.Run(sim::Millis(60), sim::Millis(20)).txn_per_sec;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader("Table 2", "type-1 vs type-2 vs Tai Chi hybrid virtualization");

  bench::JsonReport json("tab02_virt_compare", argc, argv);
  json.Config("connections", static_cast<int64_t>(256));
  json.Config("seed", static_cast<int64_t>(42));

  double base = MeasureCps(exp::Mode::kBaseline);
  double type1 = MeasureCps(exp::Mode::kTaiChiVdp);
  double type2 = MeasureCps(exp::Mode::kType2);
  double taichi = MeasureCps(exp::Mode::kTaiChi);

  sim::Table t({"Property", "Type-1 (Xen)", "Type-2 (QEMU+KVM)", "Tai Chi"});
  t.AddRow({"DP residency", "Guest OS", "SmartNIC OS", "SmartNIC OS"});
  t.AddRow({"DP performance (CPS vs static)", bench::Pct(type1, base),
            bench::Pct(type2, base), bench::Pct(taichi, base)});
  t.AddRow({"CP residency (vCPU)", "Guest OS", "Guest OS", "SmartNIC OS"});
  t.AddRow({"OS count", "1", "2", "1"});
  t.AddRow({"DP-CP IPC", "Native", "Broken (RPC)", "Native"});
  t.Print();
  std::printf("\npaper: type-1 low DP perf (virtualization tax), type-2 medium\n"
              "(dedicated CPUs + 2us scheduling latency), Tai Chi high (native)\n");

  // CPS change vs the static baseline, in percent.
  auto pct = [base](double cps) { return (cps / base - 1.0) * 100.0; };
  json.Metric("baseline.cps", base);
  json.Metric("type1.cps", type1);
  json.Metric("type1.cps_vs_base_pct", pct(type1));
  json.Metric("type2.cps", type2);
  json.Metric("type2.cps_vs_base_pct", pct(type2));
  json.Metric("taichi.cps", taichi);
  json.Metric("taichi.cps_vs_base_pct", pct(taichi));
  if (!json.Write()) {
    return 1;
  }
  return bench::MechanismShapeHolds("CPS", pct(taichi), pct(type1), pct(type2)) ? 0 : 1;
}
