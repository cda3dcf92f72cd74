// The unified IPI orchestrator (§4.2): intercepts every IPI the kernel
// emits and routes it across the virtualization boundary.
//
//   Source phase: an IPI sent from a running vCPU first VM-exits that vCPU
//   (reason kIpiSend); the vCPU scheduler then asks the orchestrator to
//   reissue the pending IPI before re-entering the guest.
//
//   Destination phase: pCPU targets get real LAPIC MSR writes; running
//   vCPU targets get posted-interrupt injection; sleeping vCPU targets are
//   woken first (via the vCPU scheduler) and the interrupt is pended.
//
// Boot IPIs to vCPUs complete CPU hotplug (Fig. 8a), making vCPUs appear as
// native CPUs that tasks can be affined to with zero code modifications.
#ifndef SRC_TAICHI_IPI_ORCHESTRATOR_H_
#define SRC_TAICHI_IPI_ORCHESTRATOR_H_

#include <deque>
#include <unordered_map>

#include "src/os/kernel.h"
#include "src/sim/simulation.h"

namespace taichi::core {

class VcpuScheduler;

class IpiOrchestrator : public os::IpiRouter {
 public:
  explicit IpiOrchestrator(os::Kernel* kernel) : kernel_(kernel) {
    kernel_->set_ipi_router(this);
  }
  ~IpiOrchestrator() override { kernel_->set_ipi_router(nullptr); }

  void set_scheduler(VcpuScheduler* scheduler) { scheduler_ = scheduler; }

  // os::IpiRouter:
  void Route(os::CpuId from, os::CpuId to, os::IpiType type) override;

  // Reissues IPIs that were pending when `vcpu` VM-exited with kIpiSend.
  // Called by the vCPU scheduler from its exit handler.
  void FlushPendingFrom(os::CpuId vcpu);

  uint64_t routed() const { return routed_.value(); }
  uint64_t vcpu_source_exits() const { return vcpu_source_exits_.value(); }
  uint64_t sleeping_vcpu_wakes() const { return sleeping_vcpu_wakes_.value(); }

  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }

  void RegisterMetrics(obs::MetricsRegistry& registry, const std::string& prefix = "ipi") const {
    registry.AddCounter(prefix + ".routed", &routed_);
    registry.AddCounter(prefix + ".vcpu_source_exits", &vcpu_source_exits_);
    registry.AddCounter(prefix + ".posted_injections", &posted_injections_);
    registry.AddCounter(prefix + ".sleeping_vcpu_wakes", &sleeping_vcpu_wakes_);
  }

 private:
  struct PendingIpi {
    os::CpuId to;
    os::IpiType type;
  };

  void Deliver(os::CpuId from, os::CpuId to, os::IpiType type);

  os::Kernel* kernel_;
  VcpuScheduler* scheduler_ = nullptr;
  obs::TraceRecorder* tracer_ = nullptr;
  std::unordered_map<os::CpuId, std::deque<PendingIpi>> pending_reissue_;
  sim::Counter routed_;
  sim::Counter vcpu_source_exits_;
  sim::Counter posted_injections_;
  sim::Counter sleeping_vcpu_wakes_;
};

}  // namespace taichi::core

#endif  // SRC_TAICHI_IPI_ORCHESTRATOR_H_
