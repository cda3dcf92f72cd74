// The programmable I/O hardware accelerator (§2.2/§3.4): every I/O request
// entering the SmartNIC is preprocessed (payload handling, 2.7 us) and then
// transferred to the memory shared with the owning DP service (0.5 us). The
// sum is the "I/O preprocessing window" that Tai Chi uses to hide vCPU
// scheduling latency (Observation 4 / Fig. 6).
#ifndef SRC_HW_ACCELERATOR_H_
#define SRC_HW_ACCELERATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/hw/hw_probe.h"
#include "src/hw/io_packet.h"
#include "src/hw/ring.h"
#include "src/obs/flow_monitor.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/packet_pool.h"
#include "src/sim/simulation.h"
#include "src/sim/stats.h"

namespace taichi::hw {

struct AcceleratorConfig {
  sim::Duration preprocess_latency = sim::MicrosF(2.7);  // Stage 2 in Fig. 6.
  sim::Duration transfer_latency = sim::MicrosF(0.5);    // Stage 3 in Fig. 6.
  // Pipeline initiation interval per queue: a new packet can start
  // preprocessing this long after the previous one on the same queue.
  sim::Duration per_packet_gap = sim::Nanos(120);
  // Depth of each queue's descriptor ring; pushes beyond it are rx drops.
  size_t ring_capacity = 4096;
};

class Accelerator {
 public:
  Accelerator(sim::Simulation* sim, AcceleratorConfig config)
      : sim_(sim), config_(config) {}

  // The arena packets live in while crossing the NIC. Must be set (by the
  // owning Machine) before any Ingress call; outlives the accelerator.
  void set_pool(sim::PacketPool* pool) { pool_ = pool; }
  sim::PacketPool* pool() const { return pool_; }

  // Declares an eNIC queue whose descriptors are consumed by the DP service
  // running on data-plane CPU `dest_cpu`. Returns the queue id.
  uint32_t AddQueue(uint32_t dest_cpu);

  DescriptorRing& ring(uint32_t queue) { return *queues_[queue].ring; }
  uint32_t dest_cpu(uint32_t queue) const { return queues_[queue].dest_cpu; }
  size_t queue_count() const { return queues_.size(); }

  // Installs the hardware workload probe "firmware" (the paper's ~30-line
  // accelerator modification). Null uninstalls it.
  void set_probe(HwWorkloadProbe* probe) { probe_ = probe; }
  HwWorkloadProbe* probe() const { return probe_; }

  // RX flow telemetry tap: every ingressed packet is recorded (O(1),
  // allocation-free) before entering the pipeline — the "offered load" view,
  // as opposed to the poll services' "work performed" view. The monitor must
  // outlive the accelerator.
  void set_flow_monitor(obs::FlowMonitor* monitor) { flow_monitor_ = monitor; }

  // Fault injection: freezes the preprocessing pipeline for `duration` —
  // every queue's next admission slot is pushed past now + duration, so
  // arriving packets queue up behind the stall exactly as behind a burst.
  // Models firmware hiccups / PCIe backpressure for the chaos layer.
  void Stall(sim::Duration duration);
  uint64_t stalls() const { return stalls_; }

  // A packet enters the SmartNIC bound for `queue`. Allocates an arena slot
  // for it (an exhausted pool is an rx drop, like a NIC out of mbufs) and
  // walks the handle path below.
  void Ingress(uint32_t queue, const IoPacket& pkt);

  // The zero-copy path: the caller already owns `h` in this node's pool;
  // ownership passes to the accelerator, which frees it if the descriptor
  // ring overflows at publish time.
  void IngressHandle(uint32_t queue, sim::PacketHandle h);

  uint64_t packets_ingressed() const { return ingressed_.value(); }
  uint64_t packets_published() const { return published_.value(); }
  uint64_t ring_drops() const;
  // Arrivals shed because the packet arena was exhausted.
  uint64_t pool_drops() const { return pool_drops_.value(); }
  // Accounts an arrival shed before reaching Ingress because the arena was
  // exhausted (callers that allocate at the injection boundary, e.g. the
  // testbed's injection legs, report their failed Allocs here so all rx
  // shedding lands in one place).
  void CountPoolDrop() {
    ingressed_.Inc();
    pool_drops_.Inc();
  }

  // Pipeline-stage spans land on per-queue tracks at obs::kAccelTrackBase+q.
  void set_tracer(obs::TraceRecorder* tracer);

  void RegisterMetrics(obs::MetricsRegistry& registry, const std::string& prefix = "accel") const;

  // Packets currently inside the preprocessing pipeline for `queue` —
  // packet metadata the §9 extension exposes to the software probe so DP
  // CPUs do not yield with work already in flight toward them.
  uint32_t in_flight(uint32_t queue) const { return queues_[queue].in_flight; }

  // Observed per-packet accelerator residency (for the Fig. 6 breakdown).
  const sim::Summary& residency_us() const { return residency_us_; }

 private:
  struct Queue {
    uint32_t dest_cpu = 0;
    std::unique_ptr<DescriptorRing> ring;
    sim::SimTime next_free = 0;  // Earliest time the next packet may start stage 2.
    uint32_t in_flight = 0;      // Packets inside the pipeline right now.
  };

  sim::Simulation* sim_;
  AcceleratorConfig config_;
  sim::PacketPool* pool_ = nullptr;
  std::vector<Queue> queues_;
  HwWorkloadProbe* probe_ = nullptr;
  obs::TraceRecorder* tracer_ = nullptr;
  obs::FlowMonitor* flow_monitor_ = nullptr;
  sim::Counter ingressed_;
  sim::Counter published_;
  sim::Counter pool_drops_;
  uint64_t stalls_ = 0;
  sim::Summary residency_us_;
};

}  // namespace taichi::hw

#endif  // SRC_HW_ACCELERATOR_H_
