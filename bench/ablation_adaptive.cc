// Ablation: the adaptive vCPU time slice (§4.1) and the adaptive empty-poll
// yield threshold (§4.3). Fixed-slice configurations pay more VM-exits for
// the same donated time; fixed-threshold configurations either waste idle
// cycles (large N) or trigger false-positive yields (small N).
//
// Exits 1 on a shape mismatch: either adaptive-slice configuration pays as
// many VM exits per donated ms as either fixed-slice one. The verdict goes
// to stderr, so stdout stays the table.
#include "bench/common.h"

#include <algorithm>
#include <limits>

using namespace taichi;

namespace {

struct Config {
  const char* name;
  const char* key;  // JSON metric prefix.
  bool adaptive_slice;
  bool adaptive_threshold;
};

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader("Ablation", "adaptive slice / adaptive yield threshold");

  bench::JsonReport json("ablation_adaptive", argc, argv);
  json.Config("synth_cp_tasks", static_cast<int64_t>(16));
  json.Config("dp_utilization", 0.30);
  json.Config("seed", static_cast<int64_t>(42));
  const std::vector<Config> kConfigs = {
      {"both adaptive (Tai Chi)", "both_adaptive", true, true},
      {"fixed slice", "fixed_slice", false, true},
      {"fixed threshold", "fixed_threshold", true, false},
      {"both fixed", "both_fixed", false, false},
  };
  // Exits per donated ms: the worst adaptive-slice row, the best fixed one.
  double adaptive_worst = 0;
  double fixed_best = std::numeric_limits<double>::infinity();

  sim::Table t({"Configuration", "synth_cp avg (ms)", "VM exits", "exits/donated-ms",
                "false-positive yields"});
  for (const Config& config : kConfigs) {
    auto bed = bench::MakeTestbed(exp::Mode::kTaiChi, 42, [&](exp::TestbedConfig& cfg) {
      cfg.taichi.adaptive_slice = config.adaptive_slice;
      cfg.taichi.adaptive_yield_threshold = config.adaptive_threshold;
    });
    exp::SynthCpResult r = exp::RunSynthCp(bed.get(), 16, /*dp_utilization=*/0.30);
    const auto& sched = bed->taichi()->scheduler();
    uint64_t exits = sched.slice_expirations() + sched.probe_preemptions() + sched.halts();
    double donated_ms =
        sched.guest_episode_us().count() > 0
            ? sched.guest_episode_us().sum() / 1000.0
            : 0.0;
    const double exits_per_ms = donated_ms > 0 ? exits / donated_ms : 0;
    t.AddRow({config.name, sim::Table::Num(r.exec_time_ms.mean(), 1),
              std::to_string(exits), sim::Table::Num(exits_per_ms, 2),
              std::to_string(bed->taichi()->sw_probe().false_positives())});
    const std::string prefix = std::string(config.key) + ".";
    json.Metric(prefix + "synth_cp_avg_ms", r.exec_time_ms.mean());
    json.Metric(prefix + "vm_exits", static_cast<int64_t>(exits));
    json.Metric(prefix + "exits_per_donated_ms", exits_per_ms);
    json.Metric(prefix + "false_positive_yields",
                static_cast<int64_t>(bed->taichi()->sw_probe().false_positives()));
    if (config.adaptive_slice) {
      adaptive_worst = std::max(adaptive_worst, exits_per_ms);
    } else {
      fixed_best = std::min(fixed_best, exits_per_ms);
    }
  }
  t.Print();
  std::printf("\nDesign claim (§4.1/§4.3): adaptation minimizes costly VM-exits while\n"
              "keeping CP progress; fixed settings trade one for the other.\n");
  if (!json.Write()) {
    return 1;
  }
  const bool shape_ok = adaptive_worst > 0 && adaptive_worst < fixed_best;
  std::fprintf(stderr,
               "%s: both adaptive-slice configurations take fewer VM exits per donated ms "
               "than both fixed-slice ones\n",
               shape_ok ? "PASS" : "SHAPE MISMATCH");
  return shape_ok ? 0 : 1;
}
