// The Tai Chi framework facade: wires the vCPU pool, the unified IPI
// orchestrator, the software/hardware workload probes and the vCPU
// scheduler onto an existing SmartNIC OS + machine, then brings the vCPUs
// online as native CPUs.
//
// Typical use:
//
//   core::TaiChiConfig cfg;
//   cfg.dp_cpus = os::CpuSet::Range(0, 8);
//   cfg.cp_cpus = os::CpuSet::Range(8, 12);
//   core::TaiChi taichi(&kernel, cfg);
//   sim.RunFor(sim::Millis(1));               // vCPU bring-up.
//   // CP tasks: affine to taichi.cp_task_cpus() — vCPUs + CP pCPUs.
//   // DP services: register with taichi.sw_probe() and call
//   // NotifyIdleDpCpuCycles() from their poll loops (Fig. 9).
#ifndef SRC_TAICHI_TAICHI_H_
#define SRC_TAICHI_TAICHI_H_

#include <memory>

#include "src/obs/observability.h"
#include "src/os/kernel.h"
#include "src/taichi/config.h"
#include "src/taichi/ipi_orchestrator.h"
#include "src/taichi/sw_probe.h"
#include "src/taichi/vcpu_scheduler.h"
#include "src/virt/vcpu_pool.h"

namespace taichi::core {

class TaiChi {
 public:
  // Installs Tai Chi onto `kernel`. The hardware workload probe is wired
  // into the machine's accelerator unless config.hw_probe_enabled is false.
  // Run the simulation briefly after construction to complete vCPU bring-up.
  TaiChi(os::Kernel* kernel, TaiChiConfig config);
  TaiChi(const TaiChi&) = delete;
  TaiChi& operator=(const TaiChi&) = delete;
  ~TaiChi();

  const TaiChiConfig& config() const { return config_; }
  virt::VcpuPool& pool() { return *pool_; }
  SwWorkloadProbe& sw_probe() { return *sw_probe_; }
  VcpuScheduler& scheduler() { return *scheduler_; }
  IpiOrchestrator& orchestrator() { return *orchestrator_; }

  // CPU set the control-plane tasks should be affined to: all vCPUs plus
  // the dedicated CP pCPUs (§5: standard cgroup/affinity configuration).
  os::CpuSet cp_task_cpus() const { return pool_->cpu_set() | config_.cp_cpus; }
  os::CpuSet vcpu_set() const { return pool_->cpu_set(); }

  // Wires the three core components (scheduler, orchestrator, SW probe) into
  // `obs`. The kernel/machine side is wired by whoever owns them (exp::Testbed
  // does both), so metrics register exactly once.
  void AttachObservability(obs::Observability* obs);

 private:
  os::Kernel* kernel_;
  TaiChiConfig config_;
  std::unique_ptr<virt::VcpuPool> pool_;
  std::unique_ptr<IpiOrchestrator> orchestrator_;
  std::unique_ptr<SwWorkloadProbe> sw_probe_;
  std::unique_ptr<VcpuScheduler> scheduler_;
};

}  // namespace taichi::core

#endif  // SRC_TAICHI_TAICHI_H_
