// Table 5: ping round-trip time across three mechanisms, demonstrating that
// the hardware workload probe hides vCPU scheduling latency.
// Paper (us):          min  avg  max  mdev
//   Baseline            26   30   38    5
//   Tai Chi             27   30   38    5
//   Tai Chi w/o probe   32   37  115    9
//
// Exits 1 on a shape mismatch: the Tai Chi mean more than 10% from the
// baseline mean, or the probe-off mean or max not above Tai Chi's. The
// verdict goes to stderr, so stdout stays the table alone.
#include "bench/common.h"

using namespace taichi;

int main(int argc, char** argv) {
  bench::PrintHeader("Table 5", "ping RTT: baseline vs Tai Chi vs Tai Chi w/o HW probe");

  bench::JsonReport json("tab05_ping_rtt", argc, argv);
  json.Config("pings", static_cast<int64_t>(2000));
  json.Config("seed", static_cast<int64_t>(42));

  auto run = [](exp::Mode mode) {
    auto bed = bench::MakeTestbed(mode, 42, [](exp::TestbedConfig& cfg) {
      // Sustained CP pressure so vCPUs regularly occupy the (otherwise
      // idle) DP CPUs while pings arrive.
      cfg.monitors.count = 12;
      cfg.monitors.period_mean = sim::Micros(300);
      cfg.monitors.user_work_mean = sim::Micros(60);
    });
    bed->SpawnBackgroundCp();
    bed->sim().RunFor(sim::Millis(5));
    exp::PingRunner ping(bed.get());
    return ping.Run(/*count=*/2000, /*interval=*/sim::Millis(1));
  };

  sim::Table t({"Mechanism", "Min (us)", "Avg (us)", "Max (us)", "Mdev (us)"});
  std::vector<sim::Summary> rtts;  // baseline, Tai Chi, Tai Chi w/o probe.
  for (exp::Mode mode :
       {exp::Mode::kBaseline, exp::Mode::kTaiChi, exp::Mode::kTaiChiNoHwProbe}) {
    const sim::Summary& rtt = rtts.emplace_back(run(mode));
    t.AddRow({exp::ToString(mode), sim::Table::Num(rtt.min(), 0),
              sim::Table::Num(rtt.mean(), 0), sim::Table::Num(rtt.max(), 0),
              sim::Table::Num(rtt.mdev(), 1)});
    json.Metric(std::string(exp::ToString(mode)) + ".rtt_us", rtt);
  }
  t.Print();
  std::printf(
      "\npaper: baseline 26/30/38/5, Tai Chi 27/30/38/5, w/o probe 32/37/115/9 (us)\n");
  if (!json.Write()) {
    return 1;
  }
  const sim::Summary& base = rtts[0];
  const sim::Summary& taichi = rtts[1];
  const sim::Summary& no_probe = rtts[2];
  const bool shape_ok = std::abs(taichi.mean() / base.mean() - 1.0) <= 0.10 &&
                        no_probe.mean() > taichi.mean() && no_probe.max() > taichi.max();
  std::fprintf(stderr,
               "%s: Tai Chi mean RTT within 10%% of baseline; without the probe both mean "
               "and max RTT are higher\n",
               shape_ok ? "PASS" : "SHAPE MISMATCH");
  return shape_ok ? 0 : 1;
}
