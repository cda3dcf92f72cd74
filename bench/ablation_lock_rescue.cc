// Ablation: safe CP-to-DP scheduling in lock context (§4.1). With the
// rescue disabled, a vCPU preempted while holding the shared driver lock
// can strand every spinning waiter; with it enabled, the vCPU continues on
// an idle DP pCPU or a dedicated CP pCPU and forward progress is
// guaranteed.
//
// Exits 1 on a shape mismatch: with the rescue on, not all 24 tasks finish,
// no lock rescue happens, or the mean execution time is not below the
// rescue-off mean. The verdict goes to stderr, so stdout stays the table.
#include "bench/common.h"

using namespace taichi;

namespace {
constexpr int kTasks = 24;
}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader("Ablation", "lock-context safe rescheduling on/off");

  bench::JsonReport json("ablation_lock_rescue", argc, argv);
  json.Config("tasks", static_cast<int64_t>(kTasks));
  json.Config("seed", static_cast<int64_t>(42));
  int done_on = 0;
  uint64_t rescues_on = 0;
  double avg_on = 0, avg_off = 0;
  sim::Table t({"Configuration", "tasks done (of 24)", "avg exec (ms)", "max exec (ms)",
                "lock rescues"});
  for (bool rescue : {true, false}) {
    auto bed = bench::MakeTestbed(exp::Mode::kTaiChi, 42, [&](exp::TestbedConfig& cfg) {
      cfg.taichi.safe_lock_rescheduling = rescue;
    });
    // Lock-heavy synth_cp under bursty DP traffic: probe preemptions land
    // while the driver lock is held.
    cp::SynthCpConfig scfg;
    scfg.lock_prob = 0.8;
    scfg.kernel_fraction = 0.5;

    bed->SpawnBackgroundCp();
    bed->StartBackgroundBurstyLoad(0.35, 512);
    bed->sim().RunFor(sim::Millis(20));
    auto bench_cp = std::make_unique<cp::SynthCpBenchmark>(&bed->kernel(), scfg, 7);
    bench_cp->Launch(kTasks, bed->cp_task_cpus());
    sim::SimTime deadline = bed->sim().Now() + sim::Seconds(4);
    while (!bench_cp->AllDone() && bed->sim().Now() < deadline) {
      bed->sim().RunFor(sim::Millis(20));
    }
    double avg = bench_cp->done() > 0 ? bench_cp->exec_time_ms().mean() : -1;
    double mx = bench_cp->done() > 0 ? bench_cp->exec_time_ms().max() : -1;
    const uint64_t rescues = bed->taichi()->scheduler().lock_rescues();
    t.AddRow({rescue ? "rescue on (Tai Chi)" : "rescue off",
              std::to_string(bench_cp->done()), sim::Table::Num(avg, 1),
              sim::Table::Num(mx, 1), std::to_string(rescues)});
    const std::string prefix = rescue ? "rescue_on." : "rescue_off.";
    json.Metric(prefix + "tasks_done", static_cast<int64_t>(bench_cp->done()));
    json.Metric(prefix + "avg_exec_ms", avg);
    json.Metric(prefix + "max_exec_ms", mx);
    json.Metric(prefix + "lock_rescues", static_cast<int64_t>(rescues));
    if (rescue) {
      done_on = bench_cp->done();
      rescues_on = rescues;
      avg_on = avg;
    } else {
      avg_off = avg;
    }
  }
  t.Print();
  std::printf("\nDesign claim (§4.1): rescue guarantees forward progress for\n"
              "lock-holding vCPUs; disabling it risks stalls/hangs under preemption.\n");
  if (!json.Write()) {
    return 1;
  }
  const bool shape_ok = done_on == kTasks && rescues_on > 0 && avg_on < avg_off;
  std::fprintf(stderr,
               "%s: with the rescue on, all 24 tasks finish through lock rescues and the "
               "mean execution time is below the rescue-off mean\n",
               shape_ok ? "PASS" : "SHAPE MISMATCH");
  return shape_ok ? 0 : 1;
}
