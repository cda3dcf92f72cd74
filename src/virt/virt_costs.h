// Cost models for the virtualization baselines of §3.4 / §6.3.
//
// Traditional type-1 (everything in the guest) and type-2 (QEMU+KVM guest
// for the control plane) are reproduced as configurations of these costs
// rather than full second kernels: the evaluation only exercises their
// resource and per-I/O taxes, which is what these constants encode. See
// DESIGN.md "Known deviations".
#ifndef SRC_VIRT_VIRT_COSTS_H_
#define SRC_VIRT_VIRT_COSTS_H_

#include "src/sim/time.h"

namespace taichi::virt {

// Type-1 ("Tai Chi-vDP"): identical to Tai Chi, but DP services execute in
// vCPU contexts. Nested page tables and VM-exits slow every unit of DP work.
struct Type1Costs {
  // Multiplier on DP packet-processing work (~NPT walks + exit amortization;
  // §6.3 reports 6-8% data-plane degradation).
  double dp_work_tax = 0.07;
};

// Type-2 (QEMU + KVM): the control plane lives in a separate guest OS.
struct Type2Costs {
  // Physical CPUs permanently consumed by device emulation plus the guest
  // OS itself, taken from the data-plane pool ("at least one dedicated CPU
  // for both device emulation and the guest OS", §3.4; two matches the
  // ~26% degradation of an 8-CPU data plane in §6.3).
  int dedicated_cpus = 2;
  // Native IPC between DP and CP breaks; every interaction becomes an RPC
  // through virtio/vsock emulation.
  sim::Duration ipc_to_rpc_penalty = sim::Micros(25);
};

}  // namespace taichi::virt

#endif  // SRC_VIRT_VIRT_COSTS_H_
