// Tunables for the Tai Chi scheduling framework (§4).
#ifndef SRC_TAICHI_CONFIG_H_
#define SRC_TAICHI_CONFIG_H_

#include "src/os/types.h"
#include "src/sim/time.h"

namespace taichi::core {

// The softirq number reserved for pCPU-to-vCPU context switching (§4.1).
inline constexpr int kVcpuSwitchSoftirq = 1;

struct TaiChiConfig {
  // CPU partitioning: data-plane pCPUs, dedicated control-plane pCPUs.
  os::CpuSet dp_cpus;
  os::CpuSet cp_cpus;

  // Number of vCPUs to provision (typically one per DP pCPU so every idle
  // data-plane CPU can host one).
  int num_vcpus = 8;

  // Synthetic LAPIC id of the first vCPU. A fresh Tai Chi generation on the
  // same kernel (staged-rollout re-enable after a rollback) must pick a
  // disjoint range, since retired vCPU ids stay registered with the OS.
  uint32_t vcpu_apic_base = 1000;  // virt::kVcpuApicBase.

  // Adaptive vCPU time slice (§4.1): starts at `initial_slice`, doubles on
  // slice-expiry VM-exits up to `max_slice`, resets on hardware-probe exits.
  // The cap bounds the worst-case DP delay when the hardware probe is
  // unavailable (a packet can wait out the full remaining slice).
  sim::Duration initial_slice = sim::Micros(50);
  sim::Duration max_slice = sim::Micros(200);

  // Adaptive empty-poll yield threshold N (§4.3): halved on sustained-idle
  // exits (more cycles donated), doubled on false-positive yields.
  uint32_t initial_yield_threshold = 256;
  uint32_t min_yield_threshold = 32;
  uint32_t max_yield_threshold = 8192;
  // A hardware-probe preemption counts as a false-positive yield only when
  // the vCPU episode was shorter than this: the idleness was misjudged. A
  // long episode cut short by traffic was still a productive donation.
  sim::Duration false_positive_window = sim::Micros(15);

  // Feature toggles for ablations and the Table 5 / §6.4 experiments.
  bool hw_probe_enabled = true;
  bool adaptive_slice = true;
  bool adaptive_yield_threshold = true;
  bool safe_lock_rescheduling = true;

  // Slice used when a lock-holding vCPU is rescued onto a CP pCPU (§4.1).
  sim::Duration rescue_slice = sim::Micros(50);
  // Retry delay when no pCPU can host a rescue right now.
  sim::Duration rescue_retry_delay = sim::Micros(10);
};

}  // namespace taichi::core

#endif  // SRC_TAICHI_CONFIG_H_
