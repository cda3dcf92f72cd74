#include "src/taichi/vcpu_scheduler.h"

#include <algorithm>
#include <cassert>

#include "src/sim/logging.h"
#include "src/taichi/ipi_orchestrator.h"

namespace taichi::core {

VcpuScheduler::VcpuScheduler(os::Kernel* kernel, virt::VcpuPool* pool,
                             SwWorkloadProbe* sw_probe, hw::HwWorkloadProbe* hw_probe,
                             const TaiChiConfig& config)
    : kernel_(kernel),
      pool_(pool),
      sw_probe_(sw_probe),
      hw_probe_(hw_probe),
      config_(config) {
  for (const virt::VcpuInfo& v : pool_->vcpus()) {
    vcpus_[v.cpu] = VcpuRecord{};
  }
  auto init_pcpu = [this](os::CpuId cpu) {
    PcpuRecord rec;
    rec.slice = config_.initial_slice;
    pcpus_[cpu] = rec;
  };
  for (os::CpuId cpu = 0; cpu < kernel_->num_cpus(); ++cpu) {
    if (config_.dp_cpus.Test(cpu) || config_.cp_cpus.Test(cpu)) {
      init_pcpu(cpu);
    }
  }
  kernel_->RegisterSoftirq(kVcpuSwitchSoftirq, [this](os::CpuId cpu) { DoSwitch(cpu); });
  sw_probe_->set_scheduler(this);
  kernel_->set_idle_handler([this](os::CpuId pcpu) { OnCpuIdle(pcpu); });
  kernel_->set_guest_exit_handler(
      [this](os::CpuId pcpu, os::CpuId vcpu, const os::GuestExitInfo& info) {
        OnGuestExit(pcpu, vcpu, info);
      });
  kernel_->set_guest_halt_handler([this](os::CpuId vcpu) { OnGuestHalt(vcpu); });
}

VcpuScheduler::~VcpuScheduler() {
  for (auto& [pcpu, rec] : pcpus_) {
    (void)rec;
    CancelSliceTimer(pcpu);
  }
  kernel_->RegisterSoftirq(kVcpuSwitchSoftirq, nullptr);
  kernel_->set_idle_handler(nullptr);
  kernel_->set_guest_exit_handler(nullptr);
  kernel_->set_guest_halt_handler(nullptr);
  sw_probe_->set_scheduler(nullptr);
}

void VcpuScheduler::OnCpuIdle(os::CpuId pcpu) {
  // An idle dedicated CP pCPU can host a runnable vCPU directly; a native
  // wake on this pCPU reclaims it via the IPI-induced VM-exit.
  if (!IsCpCpu(pcpu) || runnable_.empty()) {
    return;
  }
  if (kernel_->guest_of(pcpu) != os::kInvalidCpu || !kernel_->CpuInHostMode(pcpu) ||
      !kernel_->CpuIdle(pcpu)) {
    return;
  }
  os::CpuId vcpu = PickRunnableVcpu();
  if (vcpu == os::kInvalidCpu) {
    return;
  }
  Enter(pcpu, vcpu, config_.max_slice);
}

sim::Duration VcpuScheduler::current_slice(os::CpuId pcpu) const {
  auto it = pcpus_.find(pcpu);
  return it != pcpus_.end() ? it->second.slice : config_.initial_slice;
}

void VcpuScheduler::OnDpIdle(os::CpuId dp_pcpu) {
  auto it = pcpus_.find(dp_pcpu);
  if (it == pcpus_.end()) {
    return;
  }
  if (kernel_->guest_of(dp_pcpu) != os::kInvalidCpu || !kernel_->CpuInHostMode(dp_pcpu)) {
    return;  // Already lent or transitioning.
  }
  if (runnable_.empty()) {
    // Remember the offer: when a vCPU is kicked awake it can use this CPU.
    it->second.offering = true;
    return;
  }
  kernel_->RaiseSoftirq(dp_pcpu, kVcpuSwitchSoftirq);
}

void VcpuScheduler::MarkRunnable(os::CpuId vcpu) {
  VcpuRecord& rec = vcpus_.at(vcpu);
  if (rec.state != VcpuState::kSleeping) {
    return;
  }
  rec.state = VcpuState::kRunnable;
  runnable_.push_back(vcpu);
}

void VcpuScheduler::OnVcpuKicked(os::CpuId vcpu) {
  MarkRunnable(vcpu);
  // An idle dedicated CP pCPU can host the kicked vCPU immediately.
  for (os::CpuId cpu = 0; cpu < kernel_->num_cpus(); ++cpu) {
    if (IsCpCpu(cpu) && kernel_->CpuIdle(cpu) && kernel_->CpuInHostMode(cpu)) {
      OnCpuIdle(cpu);
      if (runnable_.empty()) {
        return;
      }
    }
  }
  // Use an outstanding idle offer, if any.
  for (auto& [pcpu, rec] : pcpus_) {
    if (!rec.offering) {
      continue;
    }
    if (kernel_->guest_of(pcpu) != os::kInvalidCpu || !kernel_->CpuInHostMode(pcpu)) {
      rec.offering = false;
      continue;
    }
    if (IsDpCpu(pcpu) && sw_probe_->HasDpService(pcpu) && !sw_probe_->IsDpIdle(pcpu)) {
      rec.offering = false;  // Stale offer: work arrived meanwhile.
      continue;
    }
    rec.offering = false;
    kernel_->RaiseSoftirq(pcpu, kVcpuSwitchSoftirq);
    return;
  }
}

os::CpuId VcpuScheduler::PickRunnableVcpu() {
  while (!runnable_.empty()) {
    os::CpuId v = runnable_.front();
    runnable_.pop_front();
    VcpuRecord& rec = vcpus_.at(v);
    if (rec.state != VcpuState::kRunnable) {
      continue;  // Raced with another placement.
    }
    if (!kernel_->CpuHasWork(v)) {
      rec.state = VcpuState::kSleeping;  // Spurious kick; nothing to run.
      continue;
    }
    return v;
  }
  return os::kInvalidCpu;
}

void VcpuScheduler::DoSwitch(os::CpuId pcpu) {
  PcpuRecord& rec = pcpus_.at(pcpu);
  rec.offering = false;
  if (kernel_->guest_of(pcpu) != os::kInvalidCpu || !kernel_->CpuInHostMode(pcpu)) {
    return;
  }
  if (IsDpCpu(pcpu) && sw_probe_->HasDpService(pcpu) && !sw_probe_->IsDpIdle(pcpu)) {
    return;  // Work arrived between the notification and the softirq.
  }
  os::CpuId vcpu = PickRunnableVcpu();
  if (vcpu == os::kInvalidCpu) {
    rec.offering = true;
    return;
  }
  Enter(pcpu, vcpu, rec.slice);
}

void VcpuScheduler::Enter(os::CpuId pcpu, os::CpuId vcpu, sim::Duration slice) {
  switches_.Inc();
  if (tracer_ != nullptr) {
    tracer_->Instant(kernel_->sim().Now(), pcpu, obs::TraceCategory::kVirt, "vcpu_place",
                     static_cast<uint64_t>(vcpu), static_cast<uint64_t>(slice));
  }
  VcpuRecord& vr = vcpus_.at(vcpu);
  vr.state = VcpuState::kRunning;
  PcpuRecord& pr = pcpus_.at(pcpu);
  pr.guest_since = kernel_->sim().Now();
  // Publish V-state to the hardware probe before entry so packets arriving
  // during the VM-entry window already trigger preemption IRQs (Fig. 7b,
  // step 5).
  if (static_cast<uint32_t>(pcpu) < kernel_->machine().num_cpus()) {
    hw_probe_->SetState(pcpu, hw::CpuProbeState::kVState);
  }
  kernel_->EnterGuest(pcpu, vcpu);
  ArmSliceTimer(pcpu, slice + kernel_->config().guest.entry_cost);
}

void VcpuScheduler::ArmSliceTimer(os::CpuId pcpu, sim::Duration slice) {
  PcpuRecord& rec = pcpus_.at(pcpu);
  // Guest re-entry re-arms constantly (the idle-poll fast-forward pattern);
  // re-key the standing timer in place instead of paying Cancel + Schedule's
  // slot churn and closure rebuild. The callback is per-pCPU state only, so
  // the one already in the slot is exactly the one a fresh Schedule would
  // build. Order-identical: Reschedule assigns the same fresh seq the old
  // Schedule would have.
  if (rec.slice_timer != sim::kInvalidEventId &&
      kernel_->sim().Reschedule(rec.slice_timer, slice)) {
    return;
  }
  rec.slice_timer = kernel_->sim().Schedule(slice, [this, pcpu] {
    pcpus_.at(pcpu).slice_timer = sim::kInvalidEventId;
    if (kernel_->guest_of(pcpu) != os::kInvalidCpu) {
      kernel_->ExitGuest(pcpu, os::GuestExitReason::kPreemptionTimer);
    }
  });
}

void VcpuScheduler::CancelSliceTimer(os::CpuId pcpu) {
  PcpuRecord& rec = pcpus_.at(pcpu);
  if (rec.slice_timer != sim::kInvalidEventId) {
    kernel_->sim().Cancel(rec.slice_timer);
    rec.slice_timer = sim::kInvalidEventId;
  }
}

void VcpuScheduler::OnGuestExit(os::CpuId pcpu, os::CpuId vcpu,
                                const os::GuestExitInfo& info) {
  if (tracer_ != nullptr) {
    tracer_->Instant(kernel_->sim().Now(), pcpu, obs::TraceCategory::kVirt, "guest_exit",
                     static_cast<uint64_t>(vcpu), static_cast<uint64_t>(info.reason));
  }
  // The slice timer is deliberately NOT cancelled here: every path below
  // either re-enters a guest (Enter → ArmSliceTimer re-keys the standing
  // timer in place) or resumes the host via resume_host below (which
  // cancels). Nothing in between observes the timer's pending state.
  PcpuRecord& pr = pcpus_.at(pcpu);
  guest_episode_us_.Add(sim::ToMicros(kernel_->sim().Now() - pr.guest_since));
  if (static_cast<uint32_t>(pcpu) < kernel_->machine().num_cpus()) {
    hw_probe_->SetState(pcpu, hw::CpuProbeState::kPState);
  }
  VcpuRecord& vr = vcpus_.at(vcpu);
  vr.state = VcpuState::kSleeping;  // Reclassified below.

  auto requeue_or_sleep = [&] {
    if (kernel_->CpuHasWork(vcpu)) {
      vr.state = VcpuState::kRunnable;
      runnable_.push_back(vcpu);
    } else {
      vr.state = VcpuState::kSleeping;
    }
  };

  // Giving the pCPU back to the host ends the arm/re-arm cycle, so the
  // standing slice timer must die here.
  auto resume_host = [&] {
    CancelSliceTimer(pcpu);
    kernel_->ResumeHost(pcpu);
  };

  // Dedicated CP pCPUs host vCPUs for lock-context rescues and while idle.
  // Keep a lock-holding vCPU there until it leaves its non-preemptible
  // context; otherwise return to the host (whose idle path re-hosts the
  // next runnable vCPU automatically).
  if (IsCpCpu(pcpu)) {
    if (info.reason == os::GuestExitReason::kIpiSend && orchestrator_ != nullptr) {
      orchestrator_->FlushPendingFrom(vcpu);
    }
    if (config_.safe_lock_rescheduling && kernel_->CpuInNonPreemptibleContext(vcpu) &&
        kernel_->CpuInHostMode(pcpu) && info.reason != os::GuestExitReason::kHalt) {
      Enter(pcpu, vcpu, config_.rescue_slice);
      return;
    }
    requeue_or_sleep();
    resume_host();
    return;
  }

  switch (info.reason) {
    case os::GuestExitReason::kPreemptionTimer: {
      slice_expirations_.Inc();
      // Sustained DP idleness: grow the slice and lower the yield threshold.
      if (config_.adaptive_slice) {
        pr.slice = std::min(pr.slice * 2, config_.max_slice);
      }
      sw_probe_->OnSustainedIdle(pcpu);
      requeue_or_sleep();
      // Assume idleness persists: rotate to the next runnable vCPU.
      os::CpuId next = os::kInvalidCpu;
      if (!IsDpCpu(pcpu) || !sw_probe_->HasDpService(pcpu) || sw_probe_->IsDpIdle(pcpu)) {
        next = PickRunnableVcpu();
      }
      if (next != os::kInvalidCpu) {
        Enter(pcpu, next, pr.slice);
      } else {
        resume_host();
      }
      return;
    }
    case os::GuestExitReason::kHalt: {
      halts_.Inc();
      requeue_or_sleep();
      os::CpuId next = os::kInvalidCpu;
      if (!IsDpCpu(pcpu) || !sw_probe_->HasDpService(pcpu) || sw_probe_->IsDpIdle(pcpu)) {
        next = PickRunnableVcpu();
      }
      if (next != os::kInvalidCpu) {
        Enter(pcpu, next, pr.slice);
      } else {
        resume_host();
      }
      return;
    }
    case os::GuestExitReason::kExternalInterrupt: {
      if (info.vector == hw::IrqVector::kDpWorkload) {
        probe_preemptions_.Inc();
        if (config_.adaptive_slice) {
          pr.slice = config_.initial_slice;
        }
        // Only a *quick* preemption means the yield was a false positive; a
        // long episode cut short by new traffic was a productive donation
        // and counts as evidence of sustained idleness for the threshold.
        sim::Duration episode = kernel_->sim().Now() - pr.guest_since;
        if (episode < config_.false_positive_window) {
          sw_probe_->OnFalsePositive(pcpu);
        } else if (episode >= config_.initial_slice) {
          sw_probe_->OnSustainedIdle(pcpu);
        }
      }
      bool rescued = false;
      if (config_.safe_lock_rescheduling && kernel_->CpuInNonPreemptibleContext(vcpu)) {
        RescueLockedVcpu(vcpu, pcpu);
        rescued = true;
      }
      if (!rescued) {
        requeue_or_sleep();
      }
      resume_host();
      return;
    }
    case os::GuestExitReason::kIpiSend: {
      if (orchestrator_ != nullptr) {
        orchestrator_->FlushPendingFrom(vcpu);
      }
      // Continue the same vCPU if it still has work and DP is still idle.
      if (kernel_->CpuHasWork(vcpu) &&
          (!sw_probe_->HasDpService(pcpu) || sw_probe_->IsDpIdle(pcpu))) {
        Enter(pcpu, vcpu, pr.slice);
      } else {
        requeue_or_sleep();
        resume_host();
      }
      return;
    }
    case os::GuestExitReason::kForced: {
      requeue_or_sleep();
      resume_host();
      return;
    }
  }
}

void VcpuScheduler::OnGuestHalt(os::CpuId vcpu) {
  os::CpuId backer = kernel_->backer_of(vcpu);
  if (backer == os::kInvalidCpu) {
    return;
  }
  kernel_->ExitGuest(backer, os::GuestExitReason::kHalt);
}

void VcpuScheduler::RescueLockedVcpu(os::CpuId vcpu, os::CpuId exclude_pcpu) {
  VcpuRecord& vr = vcpus_.at(vcpu);
  // Another placement may have picked it up during a retry window.
  if (vr.state == VcpuState::kRunning || !kernel_->CpuInNonPreemptibleContext(vcpu)) {
    if (vr.state != VcpuState::kRunning) {
      MarkRunnable(vcpu);
    }
    return;
  }
  lock_rescues_.Inc();
  // First choice: an idle DP pCPU (probability of none free is ~P^N, §4.1).
  for (os::CpuId cpu = 0; cpu < kernel_->num_cpus(); ++cpu) {
    if (!IsDpCpu(cpu) || cpu == exclude_pcpu) {
      continue;
    }
    if (kernel_->guest_of(cpu) != os::kInvalidCpu || !kernel_->CpuInHostMode(cpu)) {
      continue;
    }
    if (!sw_probe_->HasDpService(cpu) || !sw_probe_->IsDpIdle(cpu)) {
      continue;
    }
    Enter(cpu, vcpu, config_.initial_slice);
    return;
  }
  // Fallback: a dedicated CP pCPU, round-robin.
  std::vector<os::CpuId> cp_cpus;
  for (os::CpuId cpu = 0; cpu < kernel_->num_cpus(); ++cpu) {
    if (IsCpCpu(cpu)) {
      cp_cpus.push_back(cpu);
    }
  }
  for (size_t i = 0; i < cp_cpus.size(); ++i) {
    os::CpuId cpu = cp_cpus[(rescue_rr_ + i) % cp_cpus.size()];
    if (kernel_->guest_of(cpu) != os::kInvalidCpu || !kernel_->CpuInHostMode(cpu)) {
      continue;
    }
    if (kernel_->CpuInNonPreemptibleContext(cpu)) {
      continue;  // Host task is itself inside a kernel routine; try another.
    }
    rescue_rr_ = (rescue_rr_ + i + 1) % cp_cpus.size();
    Enter(cpu, vcpu, config_.rescue_slice);
    return;
  }
  // Nothing can host the rescue right now; retry shortly. The vCPU stays
  // runnable so a regular placement can also pick it up.
  MarkRunnable(vcpu);
  kernel_->sim().Schedule(config_.rescue_retry_delay, [this, vcpu] {
    VcpuRecord& rec = vcpus_.at(vcpu);
    if (rec.state == VcpuState::kRunning) {
      return;
    }
    if (kernel_->CpuInNonPreemptibleContext(vcpu)) {
      rec.state = VcpuState::kSleeping;  // Take it out of the queue logically.
      RescueLockedVcpu(vcpu, os::kInvalidCpu);
    }
  });
}

}  // namespace taichi::core
