// Figure 12: netperf tcp_crr network performance (connections per second,
// average RX/TX packets per second) under four mechanisms.
// Paper: Tai Chi -0.2%, Tai Chi-vDP (type-1) ~-8%, type-2 (QEMU+KVM) ~-26%
// versus the static-partition baseline.
//
// Exits 1 on a shape mismatch: Tai Chi CPS more than 1% from the baseline,
// vDP outside [-12%, -3%] of it, or type-2 outside [-32%, -18%]. The
// verdict goes to stderr, so stdout stays the figure alone.
#include "bench/common.h"

using namespace taichi;

int main(int argc, char** argv) {
  bench::PrintHeader("Figure 12", "netperf tcp_crr across virtualization mechanisms");

  bench::JsonReport json("fig12_netperf_tcp_crr", argc, argv);
  json.Config("connections", static_cast<int64_t>(256));
  json.Config("seed", static_cast<int64_t>(42));

  struct Row {
    exp::Mode mode;
    exp::RrResult result;
  };
  std::vector<Row> rows;

  for (exp::Mode mode : {exp::Mode::kBaseline, exp::Mode::kTaiChi, exp::Mode::kTaiChiVdp,
                         exp::Mode::kType2}) {
    auto bed = bench::MakeTestbed(mode);
    bed->SpawnBackgroundCp();
    bed->sim().RunFor(sim::Millis(2));
    exp::RrConfig rcfg;
    rcfg.connections = 256;
    rcfg.round_trips_per_txn = 3;  // Connect / request-response / close.
    rcfg.setup_dp_cost_ns = 1500;  // Flow-table install + teardown.
    exp::RrRunner rr(bed.get(), rcfg);
    rows.push_back({mode, rr.Run(sim::Millis(80), sim::Millis(20))});
  }

  const exp::RrResult& base = rows[0].result;
  sim::Table t({"Mechanism", "CPS", "vs base", "avg_rx_pps", "avg_tx_pps", "pps vs base"});
  for (const Row& row : rows) {
    t.AddRow({exp::ToString(row.mode), sim::Table::Num(row.result.txn_per_sec, 0),
              bench::Pct(row.result.txn_per_sec, base.txn_per_sec),
              sim::Table::Num(row.result.rx_pps, 0), sim::Table::Num(row.result.tx_pps, 0),
              bench::Pct(row.result.rx_pps, base.rx_pps)});
  }
  t.Print();
  std::printf("\npaper: Tai Chi ~-0.2%%, Tai Chi-vDP ~-8%%, type-2 ~-26%% vs baseline\n");

  // CPS change vs baseline, in percent, per mechanism (rows[0] is baseline).
  double delta[4] = {};
  for (size_t i = 0; i < rows.size(); ++i) {
    delta[i] = (rows[i].result.txn_per_sec / base.txn_per_sec - 1.0) * 100.0;
    const std::string prefix = std::string(exp::ToString(rows[i].mode)) + ".";
    json.Metric(prefix + "cps", rows[i].result.txn_per_sec);
    json.Metric(prefix + "cps_vs_base_pct", delta[i]);
  }
  if (!json.Write()) {
    return 1;
  }
  return bench::MechanismShapeHolds("CPS", delta[1], delta[2], delta[3]) ? 0 : 1;
}
