// The synth_cp benchmark (§6.1): synthetic CP tasks with a fixed total CPU
// demand (default 50 ms) that exercise non-preemptible kernel routines, with
// high-concurrency support for stress-testing the control plane.
#ifndef SRC_CP_SYNTH_CP_H_
#define SRC_CP_SYNTH_CP_H_

#include <memory>

#include "src/cp/cp_profiles.h"
#include "src/os/kernel.h"
#include "src/sim/stats.h"

namespace taichi::cp {

struct SynthCpConfig {
  // Total CPU demand per task.
  sim::Duration task_demand = sim::Millis(50);
  // Iterations the demand is split into (user compute + kernel routine each).
  int iterations = 20;
  // Fraction of each iteration spent in the non-preemptible kernel routine.
  double kernel_fraction = 0.3;
  // Probability a routine runs under the shared driver lock.
  double lock_prob = 0.3;
};

// Spawns and tracks synth_cp tasks; execution time = spawn to exit, the
// metric of Fig. 11.
class SynthCpBenchmark {
 public:
  SynthCpBenchmark(os::Kernel* kernel, SynthCpConfig config, uint64_t seed)
      : kernel_(kernel), config_(config), seed_(seed) {}

  // Launches `concurrency` tasks affined to `cpus`, spread evenly.
  void Launch(int concurrency, os::CpuSet cpus);

  bool AllDone() const { return done_ == launched_; }
  int done() const { return done_; }
  // Per-task wall execution times, in milliseconds.
  const sim::Summary& exec_time_ms() const { return exec_time_ms_; }

  os::KernelSpinlock& driver_lock() { return driver_lock_; }

  void RegisterMetrics(obs::MetricsRegistry& registry,
                       const std::string& prefix = "cp.synth") const {
    registry.AddGauge(prefix + ".launched", [this] { return static_cast<double>(launched_); });
    registry.AddGauge(prefix + ".done", [this] { return static_cast<double>(done_); });
    registry.AddSummary(prefix + ".exec_time_ms", &exec_time_ms_);
    driver_lock_.RegisterMetrics(registry);
  }

 private:
  class TaskBody;

  os::Kernel* kernel_;
  SynthCpConfig config_;
  uint64_t seed_;
  os::KernelSpinlock driver_lock_{"synth_cp_driver_lock"};
  int launched_ = 0;
  int done_ = 0;
  sim::Summary exec_time_ms_;
};

}  // namespace taichi::cp

#endif  // SRC_CP_SYNTH_CP_H_
