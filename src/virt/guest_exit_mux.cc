#include "src/virt/guest_exit_mux.h"

#include <cassert>

namespace taichi::virt {

GuestExitMux::GuestExitMux(os::Kernel* kernel) : kernel_(kernel) {
  kernel_->set_guest_exit_handler(
      [this](os::CpuId pcpu, os::CpuId vcpu, const os::GuestExitInfo& info) {
        if (tracer_ != nullptr) {
          tracer_->Instant(kernel_->sim().Now(), pcpu, obs::TraceCategory::kVirt, "guest_exit",
                           static_cast<uint64_t>(vcpu), static_cast<uint64_t>(info.reason));
        }
        auto it = controllers_.find(vcpu);
        if (it == controllers_.end()) {
          kernel_->ResumeHost(pcpu);
          return;
        }
        it->second->OnGuestExit(pcpu, vcpu, info);
      });
  kernel_->set_guest_halt_handler([this](os::CpuId vcpu) {
    auto it = controllers_.find(vcpu);
    if (it != controllers_.end()) {
      it->second->OnGuestHalt(vcpu);
    }
  });
}

void GuestExitMux::Register(os::CpuId vcpu, GuestController* controller) {
  assert(controller != nullptr);
  controllers_[vcpu] = controller;
}

}  // namespace taichi::virt
