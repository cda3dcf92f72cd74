// Demultiplexes the kernel's single guest-exit/halt callback pair to
// per-vCPU controllers, so multiple virtualization users (e.g. Tai Chi's
// vCPU scheduler and an experiment-specific VMM) can coexist on one kernel.
#ifndef SRC_VIRT_GUEST_EXIT_MUX_H_
#define SRC_VIRT_GUEST_EXIT_MUX_H_

#include <unordered_map>

#include "src/os/kernel.h"

namespace taichi::virt {

class GuestController {
 public:
  virtual ~GuestController() = default;
  // The pCPU finished its VM-exit; the controller must either re-enter a
  // guest on `pcpu` or call Kernel::ResumeHost(pcpu).
  virtual void OnGuestExit(os::CpuId pcpu, os::CpuId vcpu, const os::GuestExitInfo& info) = 0;
  // The backed vCPU ran out of work (HLT in its idle loop).
  virtual void OnGuestHalt(os::CpuId vcpu) = 0;
};

class GuestExitMux {
 public:
  explicit GuestExitMux(os::Kernel* kernel);

  // Routes events for `vcpu` to `controller` (not owned).
  void Register(os::CpuId vcpu, GuestController* controller);

  // Emits a "guest_exit" dispatch instant per routed exit.
  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }

 private:
  os::Kernel* kernel_;
  obs::TraceRecorder* tracer_ = nullptr;
  std::unordered_map<os::CpuId, GuestController*> controllers_;
};

}  // namespace taichi::virt

#endif  // SRC_VIRT_GUEST_EXIT_MUX_H_
