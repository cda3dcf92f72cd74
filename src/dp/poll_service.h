// A poll-mode data-plane service (DPDK/SPDK style).
//
// The service busy-polls its descriptor rings (rte_eth_rx_burst model),
// processes bursts with a calibrated per-packet cost, and — depending on the
// yield policy — either polls forever (static partitioning baseline), blocks
// when idle (naive co-scheduling), or reports idle cycles to Tai Chi's
// software workload probe exactly as the Fig. 9 loop does.
#ifndef SRC_DP_POLL_SERVICE_H_
#define SRC_DP_POLL_SERVICE_H_

#include <vector>

#include "src/hw/io_packet.h"
#include "src/hw/ring.h"
#include "src/obs/flow_monitor.h"
#include "src/os/behaviors.h"
#include "src/os/kernel.h"
#include "src/sim/inline_callback.h"
#include "src/sim/packet_pool.h"
#include "src/sim/stats.h"
#include "src/taichi/sw_probe.h"

namespace taichi::dp {

enum class YieldPolicy : uint8_t {
  kBusyPoll,     // Never yields: the production static-partition baseline.
  kBlockOnIdle,  // Sleeps on idle, woken by ring pushes: naive co-scheduling.
  kTaiChi,       // notify_idle_DP_CPU_cycles() after N empty polls (Fig. 9).
};

struct PollServiceConfig {
  sim::Duration empty_poll_cost = sim::Nanos(80);
  sim::Duration per_packet_base_cost = sim::Nanos(900);
  sim::Duration per_block_io_base_cost = sim::Micros(2);  // SPDK-style 4 KB op.
  double ns_per_byte = 0.05;  // Payload-proportional processing.
  uint32_t burst_size = 32;

  // Type-1 virtualization tax (Tai Chi-vDP): multiplies all DP work.
  double virt_work_tax = 0.0;

  // Cache/TLB pollution model (§6.5): any displacement re-arms the
  // surcharge, however short — a re-dispatch of the service task, or any
  // rise in its CPU's `guest_lent` (a vCPU borrowed the CPU). The next
  // `pollution_decay` of work then costs a flat `pollution_max_factor`
  // extra: the budget runs down as work is charged, the factor does not.
  double pollution_max_factor = 0.35;
  sim::Duration pollution_decay = sim::Micros(40);

  // Empty polls before blocking under kBlockOnIdle.
  uint32_t block_threshold = 256;
};

class PollService : public os::Behavior {
 public:
  // Called once per completed burst with the batch of processed handles.
  // Ownership of the handles passes to the sink, which must eventually Free
  // each one; without a sink the service frees them itself.
  using BatchSink =
      sim::InlineFunction<void(const sim::PacketHandle* batch, size_t count,
                               sim::SimTime completed)>;

  PollService(os::CpuId cpu, PollServiceConfig config, YieldPolicy policy)
      : cpu_(cpu), config_(config), policy_(policy) {
    inflight_.reserve(config_.burst_size);
  }

  os::CpuId cpu() const { return cpu_; }
  YieldPolicy policy() const { return policy_; }
  void set_sink(BatchSink sink) { sink_ = std::move(sink); }

  // The arena the ring descriptors point into. Must be set before the first
  // dispatch (Testbed wires the owning Machine's pool); outlives the service.
  void set_pool(sim::PacketPool* pool) { pool_ = pool; }

  // Attaches a descriptor ring; pushes kick the service out of idle.
  void AttachRing(hw::DescriptorRing* ring);

  // Must be called once after the service task is spawned.
  void BindTask(os::Kernel* kernel, os::Task* task);
  os::Task* task() const { return task_; }

  // Registers with Tai Chi's software probe and switches to kTaiChi policy.
  void AttachTaiChiProbe(core::SwWorkloadProbe* probe);

  // Unregisters from the probe and reverts to `fallback` (staged-rollout
  // rollback path). No-op when no probe is attached.
  void DetachTaiChiProbe(YieldPolicy fallback = YieldPolicy::kBusyPoll);

  // True when every attached ring is empty.
  bool IsIdle() const;

  // os::Behavior:
  os::Action Next(os::Kernel& kernel, os::Task& task, const os::ActionResult& last) override;
  void OnScheduledIn(os::Kernel& kernel, os::Task& task) override;

  // --- Statistics ---
  uint64_t packets_processed() const { return packets_processed_.value(); }
  uint64_t bytes_processed() const { return bytes_processed_.value(); }
  sim::Duration work_time() const { return work_time_; }  // Useful work only.
  uint64_t yields() const { return yields_.value(); }
  // Time a descriptor sat in the ring before the service picked it up — the
  // latency-spike signal (queue delay includes any vCPU displacement).
  const sim::Summary& queue_delay_us() const { return queue_delay_us_; }

  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }

  // DP flow telemetry tap: every packet whose burst completed is recorded
  // (O(1), allocation-free). This is the tap SLO hotspot attribution reads —
  // it measures work the DP CPUs actually performed, not offered load. The
  // monitor must outlive the service.
  void set_flow_monitor(obs::FlowMonitor* monitor) { flow_monitor_ = monitor; }

  // Registers as "<prefix>.*"; Testbed uses "dp.svc<cpu>".
  void RegisterMetrics(obs::MetricsRegistry& registry, const std::string& prefix) const {
    registry.AddCounter(prefix + ".packets", &packets_processed_);
    registry.AddCounter(prefix + ".bytes", &bytes_processed_);
    registry.AddCounter(prefix + ".yields", &yields_);
    registry.AddGauge(prefix + ".work_time_us",
                      [this] { return sim::ToMicros(work_time_); });
    registry.AddSummary(prefix + ".queue_delay_us", &queue_delay_us_);
  }

 private:
  sim::Duration BatchCost(const sim::PacketHandle* batch, size_t count, sim::SimTime now);

  os::CpuId cpu_;
  PollServiceConfig config_;
  YieldPolicy policy_;
  BatchSink sink_;
  sim::PacketPool* pool_ = nullptr;
  std::vector<hw::DescriptorRing*> rings_;
  os::Kernel* kernel_ = nullptr;
  os::Task* task_ = nullptr;
  core::SwWorkloadProbe* probe_ = nullptr;
  obs::TraceRecorder* tracer_ = nullptr;
  obs::FlowMonitor* flow_monitor_ = nullptr;

  // The burst currently being processed (gathered in Next, delivered on the
  // following Next once the Compute completes). Reserved to burst_size at
  // construction; never reallocates on the hot path.
  std::vector<sim::PacketHandle> inflight_;
  // Round-robin gather cursor: which ring the next burst starts draining
  // from, so ring 0 cannot starve later rings under overload.
  size_t rr_cursor_ = 0;
  bool counting_done_ = false;  // Finished an empty-poll counting window.
  bool dispatched_once_ = false;
  sim::Duration last_guest_lent_ = 0;
  double pollution_credit_ = 0;
  // Remaining work (in ns of base cost) still subject to the pollution
  // surcharge. Kept in double so partial bursts decrement exactly by the
  // amount charged.
  double pollution_remaining_ = 0;

  sim::Counter packets_processed_;
  sim::Counter bytes_processed_;
  sim::Duration work_time_ = 0;
  sim::Counter yields_;
  sim::Summary queue_delay_us_;
};

}  // namespace taichi::dp

#endif  // SRC_DP_POLL_SERVICE_H_
