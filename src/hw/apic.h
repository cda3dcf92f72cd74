// Interrupt controller model: delivers IPIs and device IRQs to per-APIC-id
// handlers with a small delivery latency.
#ifndef SRC_HW_APIC_H_
#define SRC_HW_APIC_H_

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/simulation.h"
#include "src/sim/stats.h"

namespace taichi::hw {

using ApicId = uint32_t;
inline constexpr ApicId kInvalidApicId = 0xffffffff;

// Interrupt vectors used across the repository. The exact values are
// arbitrary; they only key dispatch tables.
enum class IrqVector : int {
  kTimer = 32,
  kResched = 33,       // Kernel rescheduling IPI.
  kFunctionCall = 34,  // smp_call_function-style IPI.
  kBoot = 35,          // INIT/SIPI-style CPU bring-up sequence.
  kDpWorkload = 48,    // Raised by the hardware workload probe (V-state hit).
  kCustomBase = 64,
};

// Delivers interrupts to registered handlers. Delivery is asynchronous with
// a fixed hardware latency, matching MSR-triggered x2apic IPIs.
class Apic {
 public:
  using Handler = std::function<void(IrqVector vector, ApicId from)>;

  Apic(sim::Simulation* sim, sim::Duration delivery_latency)
      : sim_(sim), delivery_latency_(delivery_latency) {}

  // Registers/replaces the interrupt handler for an APIC id.
  void RegisterHandler(ApicId id, Handler handler) { handlers_[id] = std::move(handler); }
  void UnregisterHandler(ApicId id) { handlers_.erase(id); }

  // Sends an interrupt to `to`. Delivered `delivery_latency` later; silently
  // dropped if no handler is registered at delivery time (masked/offline
  // CPU), like real hardware writing to a missing LAPIC.
  void Send(ApicId from, ApicId to, IrqVector vector);

  uint64_t sent_count() const { return sent_.value(); }
  uint64_t dropped_count() const { return dropped_.value(); }
  sim::Duration delivery_latency() const { return delivery_latency_; }

  // Emits an instant event on track `to` (APIC ids coincide with physical
  // CPU ids) for every delivered interrupt.
  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }

  void RegisterMetrics(obs::MetricsRegistry& registry, const std::string& prefix = "apic") const {
    registry.AddCounter(prefix + ".sent", &sent_);
    registry.AddCounter(prefix + ".dropped", &dropped_);
  }

 private:
  sim::Simulation* sim_;
  sim::Duration delivery_latency_;
  std::unordered_map<ApicId, Handler> handlers_;
  obs::TraceRecorder* tracer_ = nullptr;
  sim::Counter sent_;
  sim::Counter dropped_;
};

}  // namespace taichi::hw

#endif  // SRC_HW_APIC_H_
