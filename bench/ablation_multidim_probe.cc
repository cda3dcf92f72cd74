// §9 future-work ablation: multi-dimensional DP idle assessment. The
// baseline software probe judges idleness from empty-poll counts alone; the
// extension also consults accelerator pipeline occupancy (packet metadata),
// refusing to yield while packets are in flight toward the CPU. That
// removes exactly the yields that would be preempted microseconds later.
//
// Exits 1 on a shape mismatch: the in-flight check not removing false-positive
// yields (model 18 vs 29), or raising the mean ping RTT (model 30.3 µs
// both). The verdict goes to stderr, so stdout stays the table alone.
#include "bench/common.h"

using namespace taichi;

int main(int argc, char** argv) {
  bench::PrintHeader("Ablation (§9)", "multi-dimensional idle assessment on/off");

  bench::JsonReport json("ablation_multidim_probe", argc, argv);
  json.Config("dp_utilization", 0.15);
  json.Config("seed", static_cast<int64_t>(42));
  // Index 0: empty polls only; 1: plus the accelerator in-flight check.
  uint64_t false_positives[2] = {};
  double ping_mean_us[2] = {};

  sim::Table t({"Idle assessment", "ping avg (us)", "ping max (us)",
                "probe preemptions", "false-positive yields", "switches"});
  for (bool multi : {false, true}) {
    auto bed = bench::MakeTestbed(exp::Mode::kTaiChi, 42, [&](exp::TestbedConfig& cfg) {
      cfg.multi_dim_idle = multi;
      bench::CpPressure(cfg);
    });
    bed->SpawnBackgroundCp();
    // Steady moderate traffic: enough in-flight packets for the check to
    // matter, enough idleness for donation to continue.
    bed->StartBackgroundLoad(bed->RateForUtilization(0.15, 512), 512,
                             dp::OpenLoopConfig::Process::kPoisson);
    bed->sim().RunFor(sim::Millis(5));
    exp::PingRunner ping(bed.get());
    sim::Summary rtt = ping.Run(1000, sim::Micros(500));
    const auto& sched = bed->taichi()->scheduler();
    false_positives[multi] = bed->taichi()->sw_probe().false_positives();
    ping_mean_us[multi] = rtt.mean();
    const std::string prefix = multi ? "multi_dim." : "empty_polls.";
    json.Metric(prefix + "ping_mean_us", rtt.mean());
    json.Metric(prefix + "ping_max_us", rtt.max());
    json.Metric(prefix + "probe_preemptions", static_cast<int64_t>(sched.probe_preemptions()));
    json.Metric(prefix + "false_positive_yields", static_cast<int64_t>(false_positives[multi]));
    json.Metric(prefix + "switches", static_cast<int64_t>(sched.switches()));
    t.AddRow({multi ? "empty-polls + accel in-flight" : "empty-polls only",
              sim::Table::Num(rtt.mean(), 1), sim::Table::Num(rtt.max(), 1),
              std::to_string(sched.probe_preemptions()),
              std::to_string(bed->taichi()->sw_probe().false_positives()),
              std::to_string(sched.switches())});
  }
  t.Print();
  std::printf("\n§9: consulting accelerator packet metadata gives 'a multi-dimensional\n"
              "assessment of DP CPU idle status and more precise relinquishment'.\n");
  if (!json.Write()) {
    return 1;
  }
  const bool shape_ok =
      false_positives[1] < false_positives[0] && ping_mean_us[1] <= ping_mean_us[0];
  std::fprintf(stderr,
               "%s: the in-flight check gives fewer false-positive yields at no higher mean "
               "ping RTT\n",
               shape_ok ? "PASS" : "SHAPE MISMATCH");
  return shape_ok ? 0 : 1;
}
