// The vCPU scheduler (§4.1): softirq-based context switching between pCPUs
// and vCPUs, a round-robin runnable vCPU queue, adaptive time slices, and
// lock-context-safe rescheduling of preempted vCPUs.
#ifndef SRC_TAICHI_VCPU_SCHEDULER_H_
#define SRC_TAICHI_VCPU_SCHEDULER_H_

#include <deque>
#include <unordered_map>
#include <vector>

#include "src/hw/hw_probe.h"
#include "src/os/kernel.h"
#include "src/sim/stats.h"
#include "src/taichi/config.h"
#include "src/taichi/sw_probe.h"
#include "src/virt/vcpu_pool.h"

namespace taichi::core {

class IpiOrchestrator;

// The kernel's one guest-exit, guest-halt and idle handler while it lives:
// every VM-exit and halt on the kernel is its pool's, and it decides each.
class VcpuScheduler {
 public:
  VcpuScheduler(os::Kernel* kernel, virt::VcpuPool* pool, SwWorkloadProbe* sw_probe,
                hw::HwWorkloadProbe* hw_probe, const TaiChiConfig& config);
  VcpuScheduler(const VcpuScheduler&) = delete;
  VcpuScheduler& operator=(const VcpuScheduler&) = delete;
  // Uninstalls the switch softirq and the guest-exit, guest-halt and idle
  // handlers, and cancels armed slice timers. Destroy only after the vCPUs
  // have quiesced (no backed or runnable vCPU) — Testbed::DisableTaiChi
  // drains before tearing down.
  ~VcpuScheduler();

  void set_orchestrator(IpiOrchestrator* orchestrator) { orchestrator_ = orchestrator; }

  // --- Events from the probes and orchestrator ---

  // The software probe found idle cycles on a DP pCPU: raise the switch
  // softirq there (DP-to-CP scheduling, Fig. 7b steps 1-5).
  void OnDpIdle(os::CpuId dp_pcpu);

  // An IPI targeted a vCPU that is not currently backed: mark it runnable
  // and place it if a DP CPU already offered idle cycles.
  void OnVcpuKicked(os::CpuId vcpu);

  // A physical CPU went idle; idle dedicated CP pCPUs host runnable vCPUs
  // (tasks frozen inside a preempted vCPU are invisible to task-level load
  // balancing, so the vCPU itself must be given CPU time).
  void OnCpuIdle(os::CpuId pcpu);

  // --- Introspection ---
  enum class VcpuState : uint8_t { kSleeping, kRunnable, kRunning };
  VcpuState vcpu_state(os::CpuId vcpu) const { return vcpus_.at(vcpu).state; }
  sim::Duration current_slice(os::CpuId pcpu) const;
  uint64_t switches() const { return switches_.value(); }
  uint64_t probe_preemptions() const { return probe_preemptions_.value(); }
  uint64_t slice_expirations() const { return slice_expirations_.value(); }
  uint64_t halts() const { return halts_.value(); }
  uint64_t lock_rescues() const { return lock_rescues_.value(); }
  const sim::Summary& guest_episode_us() const { return guest_episode_us_; }

  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }

  void RegisterMetrics(obs::MetricsRegistry& registry, const std::string& prefix = "sched") const {
    registry.AddCounter(prefix + ".switches", &switches_);
    registry.AddCounter(prefix + ".probe_preemptions", &probe_preemptions_);
    registry.AddCounter(prefix + ".slice_expirations", &slice_expirations_);
    registry.AddCounter(prefix + ".halts", &halts_);
    registry.AddCounter(prefix + ".lock_rescues", &lock_rescues_);
    registry.AddSummary(prefix + ".guest_episode_us", &guest_episode_us_);
  }

 private:
  struct VcpuRecord {
    VcpuState state = VcpuState::kSleeping;
  };
  struct PcpuRecord {
    sim::Duration slice = 0;
    sim::EventId slice_timer = sim::kInvalidEventId;
    bool offering = false;  // Notified idle but no runnable vCPU was available.
    sim::SimTime guest_since = 0;
  };

  bool IsDpCpu(os::CpuId cpu) const { return config_.dp_cpus.Test(cpu); }
  bool IsCpCpu(os::CpuId cpu) const { return config_.cp_cpus.Test(cpu); }

  // The guest-exit handler: `pcpu` finished its VM-exit of `vcpu`; re-enter
  // a guest on it or resume the host. Emits a "guest_exit" instant when
  // traced.
  void OnGuestExit(os::CpuId pcpu, os::CpuId vcpu, const os::GuestExitInfo& info);
  // The guest-halt handler: the backed `vcpu` ran out of work (HLT in its
  // idle loop).
  void OnGuestHalt(os::CpuId vcpu);
  // The softirq handler body: picks a runnable vCPU and VM-enters it.
  void DoSwitch(os::CpuId pcpu);
  // Places `vcpu` on `pcpu` and arms the preemption timer.
  void Enter(os::CpuId pcpu, os::CpuId vcpu, sim::Duration slice);
  void ArmSliceTimer(os::CpuId pcpu, sim::Duration slice);
  void CancelSliceTimer(os::CpuId pcpu);
  os::CpuId PickRunnableVcpu();
  void MarkRunnable(os::CpuId vcpu);
  // Safe CP-to-DP scheduling in lock context (§4.1): continue a preempted,
  // lock-holding vCPU elsewhere so waiters cannot deadlock.
  void RescueLockedVcpu(os::CpuId vcpu, os::CpuId exclude_pcpu);

  os::Kernel* kernel_;
  virt::VcpuPool* pool_;
  SwWorkloadProbe* sw_probe_;
  hw::HwWorkloadProbe* hw_probe_;
  IpiOrchestrator* orchestrator_ = nullptr;
  obs::TraceRecorder* tracer_ = nullptr;
  TaiChiConfig config_;

  std::unordered_map<os::CpuId, VcpuRecord> vcpus_;
  std::unordered_map<os::CpuId, PcpuRecord> pcpus_;
  std::deque<os::CpuId> runnable_;  // Round-robin queue of runnable vCPUs.
  size_t rescue_rr_ = 0;            // Round-robin cursor over CP pCPUs.

  sim::Counter switches_;
  sim::Counter probe_preemptions_;
  sim::Counter slice_expirations_;
  sim::Counter halts_;
  sim::Counter lock_rescues_;
  sim::Summary guest_episode_us_;
};

}  // namespace taichi::core

#endif  // SRC_TAICHI_VCPU_SCHEDULER_H_
