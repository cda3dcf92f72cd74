// The experiment testbed: one SmartNIC node assembled per scheduling mode.
//
// Reproduces the Table 4 environment: a 12-CPU SmartNIC whose data plane
// (8 CPUs) runs poll-mode services fed by the programmable accelerator, and
// whose control plane (4 CPUs) runs device management, monitors and
// orchestration tasks. The mode selects the co-scheduling mechanism under
// test (§6.1/§6.3):
//
//   kBaseline        static partitioning (production SOTA baseline)
//   kNaiveCosched    CP tasks share DP CPUs through the OS scheduler
//   kTaiChi          the full framework
//   kTaiChiNoHwProbe Tai Chi without the hardware workload probe (§6.4)
//   kTaiChiVdp       type-1 emulation: DP in vCPU contexts (§6.3)
//   kType2           QEMU+KVM guest for CP: dedicated emulation CPUs (§6.3)
#ifndef SRC_EXP_TESTBED_H_
#define SRC_EXP_TESTBED_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cp/device_manager.h"
#include "src/cp/monitor.h"
#include "src/dp/poll_service.h"
#include "src/dp/sources.h"
#include "src/hw/machine.h"
#include "src/obs/flow_monitor.h"
#include "src/obs/observability.h"
#include "src/os/kernel.h"
#include "src/sim/inline_callback.h"
#include "src/sim/packet_pool.h"
#include "src/sim/simulation.h"
#include "src/taichi/taichi.h"
#include "src/virt/virt_costs.h"

namespace taichi::exp {

enum class Mode : uint8_t {
  kBaseline,
  kNaiveCosched,
  kTaiChi,
  kTaiChiNoHwProbe,
  kTaiChiVdp,
  kType2,
};

const char* ToString(Mode mode);

struct TestbedConfig {
  Mode mode = Mode::kBaseline;
  uint32_t total_cpus = 12;  // Table 4.
  int dp_cpu_count = 8;      // Static partition: 8 DP + 4 CP (§6.1).
  uint64_t seed = 1;

  // Accelerator pipeline + descriptor-ring depth (scenarios shrink
  // ring_capacity to surface rx drops under overload).
  hw::AcceleratorConfig accelerator;
  // Slots in the node's packet arena; exhaustion sheds arrivals.
  size_t packet_pool_capacity = 65536;

  dp::PollServiceConfig dp_service;
  core::TaiChiConfig taichi;  // dp/cp/vcpu fields filled by the testbed.
  // §9 extension: the idle check also consults accelerator pipeline
  // occupancy (packet metadata), so a DP CPU never yields with work already
  // in flight toward it.
  bool multi_dim_idle = false;
  virt::Type1Costs type1;
  virt::Type2Costs type2;

  // Background control-plane load present on every node.
  bool spawn_monitors = true;
  cp::MonitorFleetConfig monitors;
  cp::VmStartupConfig vm_startup;

  // Sketch-based flow telemetry: one config shared by the node's three taps
  // (rx = accelerator ingress, dp = poll-service completions, tx = NIC
  // port). The seed inside must stay the fleet-wide default or per-node
  // monitors stop merging.
  obs::FlowMonitorConfig flow_monitor;
  // Flow-population synthesis for the background sources (OpenLoopConfig
  // pass-through): distinct flows per source and Zipf-like skew.
  uint32_t background_flow_count = 1;
  double background_flow_skew = 1.3;
  // Per-node flow-population salt (OpenLoopConfig::flow_salt pass-through):
  // the fleet layer sets a distinct salt per node so merged distinct-flow
  // counts scale with node count. 0 keeps flow keys byte-identical to the
  // unsalted scheme.
  uint64_t background_flow_salt = 0;

  // End-to-end path constants (calibrated so the baseline ping RTT lands
  // near Table 5's 26/30/38 us).
  sim::Duration wire_latency = sim::Micros(4);     // Client <-> NIC, one way.
  sim::Duration pcie_dma_cost = sim::MicrosF(0.9); // SmartNIC <-> host VM.
  sim::Duration vm_stack_base = sim::Micros(9);    // Guest network stack.
  sim::Duration vm_stack_jitter = sim::Micros(10); // Uniform [0, jitter).
};

class Testbed {
 public:
  // Delivery callback: the packet is read out of the node's arena for the
  // duration of the call; the testbed frees the slot after the sink returns.
  using Sink = sim::InlineFunction<void(const hw::IoPacket&, sim::SimTime)>;

  explicit Testbed(TestbedConfig config);
  ~Testbed();
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  sim::Simulation& sim() { return sim_; }
  hw::Machine& machine() { return *machine_; }
  os::Kernel& kernel() { return *kernel_; }
  core::TaiChi* taichi() { return taichi_.get(); }
  cp::DeviceManager& device_manager() { return *device_manager_; }
  const TestbedConfig& config() const { return config_; }

  // --- Topology ---
  // DP CPUs actually running services (excludes type-2 emulation CPUs).
  const std::vector<os::CpuId>& active_dp_cpus() const { return active_dp_cpus_; }
  os::CpuSet dp_cpu_set() const { return dp_set_; }
  os::CpuSet cp_pcpu_set() const { return cp_set_; }
  // Where control-plane tasks are affined in this mode.
  os::CpuSet cp_task_cpus() const { return cp_task_cpus_; }
  dp::PollService& service(size_t i) { return *services_[i]; }
  size_t service_count() const { return services_.size(); }
  uint32_t queue_for_flow(uint64_t flow) const;

  // --- Packet injection (both directions pass the accelerator + DP) ---
  // Every leg admits the packet at the call: it picks the queue for
  // pkt.flow, stamps a zero `created` with the hand-over time (now +
  // `handover`) and copies the packet into the node's arena, where it waits
  // until the accelerator takes it; an exhausted arena sheds it as one pool
  // drop. `handover` is how long the host holds the packet first (guest
  // stack, server or storage-backend time).
  // From the external network: wire latency, then accelerator ingress.
  void InjectFromWire(hw::IoPacket pkt);
  // From the host VM: PCIe DMA after the hand-over, then accelerator ingress.
  void InjectFromVm(hw::IoPacket pkt, sim::Duration handover = 0);
  // Raw ingress at the accelerator at the hand-over (no extra leg).
  void Inject(hw::IoPacket pkt, sim::Duration handover = 0);

  // --- Delivery sinks, keyed by owner id (top 16 bits of user_tag) ---
  static constexpr int kOwnerShift = 48;
  static uint64_t Tag(uint16_t owner, uint64_t value) {
    return (static_cast<uint64_t>(owner) << kOwnerShift) | value;
  }
  static uint16_t OwnerOf(uint64_t tag) { return static_cast<uint16_t>(tag >> kOwnerShift); }

  // kNetRx packets reach the VM (after PCIe DMA); kNetTx packets reach the
  // wire (after NIC serialization + wire latency); kBlockIo packets complete
  // at the storage layer immediately after DP processing.
  void RegisterVmSink(uint16_t owner, Sink sink) { vm_sinks_[owner] = std::move(sink); }
  void RegisterWireSink(uint16_t owner, Sink sink) { wire_sinks_[owner] = std::move(sink); }
  void RegisterStorageSink(uint16_t owner, Sink sink) { storage_sinks_[owner] = std::move(sink); }

  // Draws the guest network-stack delay (base + uniform jitter).
  sim::Duration VmStackDelay();

  // --- Background DP load ---
  // Starts an open-loop source per active DP CPU, each at `per_cpu_rate_pps`.
  // `utilization` helpers convert between rate and expected CPU load.
  void StartBackgroundLoad(double per_cpu_rate_pps, uint32_t size_bytes,
                           dp::OpenLoopConfig::Process process);
  // Production-shaped traffic (§3.1): long quiet stretches punctuated by
  // near-peak bursts, averaging `avg_utilization` per DP CPU. This is the
  // regime where DP idle cycles are actually donatable.
  void StartBackgroundBurstyLoad(double avg_utilization, uint32_t size_bytes);
  // Same, with heterogeneous per-CPU average utilizations (fleet modeling,
  // Fig. 3). utils[i] drives active DP CPU i; missing entries reuse the last.
  void StartBackgroundBurstyLoadPerCpu(const std::vector<double>& utils,
                                       uint32_t size_bytes);
  void StopBackgroundLoad();
  // Scales every running background source relative to the rate it was
  // started with (diurnal load curves; factor 1.0 restores the baseline).
  // MMPP sources keep their duty cycle — the whole day breathes, the burst
  // shape does not change.
  void ScaleBackgroundLoad(double factor);
  double RateForUtilization(double utilization, uint32_t size_bytes) const;
  // Flow-population synthesis for background sources started after this call
  // (fleet::LoadGen pass-through). Telemetry-only: consumes no Rng state.
  void SetBackgroundFlows(uint32_t flow_count, double flow_skew,
                          uint64_t flow_salt = 0) {
    config_.background_flow_count = flow_count;
    config_.background_flow_skew = flow_skew;
    config_.background_flow_salt = flow_salt;
  }

  // Aggregate useful DP work time across services.
  sim::Duration TotalDpWork() const;

  // --- Flow telemetry (constant-space sketches, see src/obs/flow_monitor.h)
  // rx: every packet entering the accelerator; dp: every packet a poll
  // service finished processing; tx: every packet serialized onto the wire.
  // All three run unconditionally — the taps are O(1) and allocation-free —
  // and merge across nodes (fleet::Cluster::MergedFlowMonitor).
  obs::FlowMonitor& flow_rx() { return flow_rx_; }
  obs::FlowMonitor& flow_dp() { return flow_dp_; }
  obs::FlowMonitor& flow_tx() { return flow_tx_; }
  const obs::FlowMonitor& flow_rx() const { return flow_rx_; }
  const obs::FlowMonitor& flow_dp() const { return flow_dp_; }
  const obs::FlowMonitor& flow_tx() const { return flow_tx_; }

  // Spawns the standard background CP fleet (monitors) for this mode.
  void SpawnBackgroundCp();

  // --- Fault injection (the scenario chaos layer drives these) ---
  // Freezes the accelerator preprocessing pipeline: firmware hiccup / PCIe
  // backpressure. Arrivals queue behind the stall exactly as behind a burst.
  void StallAccelerator(sim::Duration duration);
  // Noisy neighbor: `count` aggressive CP tasks (Fig. 5 routine mixture,
  // contending the shared driver lock) affined to cp_task_cpus(); each runs
  // `iterations` profile iterations and exits (0 = forever).
  std::vector<os::Task*> SpawnCpFlood(int count, uint64_t iterations, uint64_t salt);
  // CPU-hotplug storm: one kHigh task issuing `ops` back-to-back
  // stop_machine-style non-preemptible kernel sections of `routine` each —
  // the pathological §2.3 CP behavior that starves everything co-located.
  os::Task* SpawnHotplugStorm(int ops, sim::Duration routine, uint64_t salt);

  // --- Runtime Tai Chi enable/disable (staged rollout, §6.6) ---
  // Installs Tai Chi on a node built as kBaseline: brings a fresh vCPU pool
  // online, attaches the software probe to every DP service, and re-affines
  // the background CP fleet to the widened cp_task_cpus(). vCPU bring-up
  // completes as simulated time advances (~1 ms); newly started CP work is
  // eligible for donated DP cycles immediately after.
  void EnableTaiChi();
  // Rolls Tai Chi back: detaches the probes (DP services return to busy
  // polling), re-affines every task off the vCPUs, then drains — the
  // framework is destroyed only once no vCPU is backed, queued-on or
  // running a task, a few hundred microseconds of simulated time later.
  void DisableTaiChi();
  bool taichi_enabled() const { return taichi_ != nullptr && !draining_; }
  // True between DisableTaiChi() and the completion of the vCPU drain.
  bool taichi_draining() const { return draining_; }

  // --- §8 inverse repartitioning at runtime (DP boost) ---
  // On: pauses idle-cycle donation — detaches the Tai Chi probes so every DP
  // CPU busy-polls at full throughput, and pulls CP tasks back to the static
  // CP partition. The framework stays installed (the vCPU pool simply idles),
  // so Off cheaply re-attaches the probes and widens CP affinity again.
  // Requires an active, non-draining Tai Chi; DisableTaiChi() clears it.
  void SetDpBoost(bool on);
  bool dp_boost() const { return dp_boost_; }

  // Wires the unified observability layer (metrics + tracer) through every
  // component of the node: kernel, interrupt fabric, accelerator, HW probe,
  // the Tai Chi core (if this mode runs it), poll services, traffic sources
  // and the CP workloads. Sources started after this call register
  // themselves as they are created. Pass nullptr to detach the tracer
  // (registered metrics stay registered). The Observability object must
  // outlive the testbed or a subsequent AttachObservability(nullptr).
  void AttachObservability(obs::Observability* obs);

 private:
  void BuildTopology();
  void BuildServices();
  void InstallTaiChi();
  void WireServiceProbe(size_t service_index);
  // Stops idle-cycle donation: detaches every service's probe (busy-poll),
  // narrows cp_task_cpus_ to the static CP partition and moves every live
  // task off the vCPUs (queued tasks at once, running ones at their next
  // preemptible boundary).
  void PauseDonation();
  // Starts it again: re-attaches the probes, widens cp_task_cpus_ onto the
  // vCPU pool and re-affines the background CP fleet.
  void ResumeDonation();
  bool TaiChiQuiesced() const;
  void ScheduleDrainCheck();
  void FinishDisableTaiChi();
  // The shared half of both background starts: registers the background VM
  // sink, then builds, starts and registers one source per active DP CPU i,
  // seeded config_.seed * seed_stride + i. `shape` sets CPU i's rate and
  // process; the flow, owner tag and size are filled here.
  void StartBackgroundSources(uint32_t size_bytes, uint64_t seed_stride,
                              sim::FunctionRef<void(size_t, dp::OpenLoopConfig&)> shape);
  // The admission step of every injection leg (see Inject); returns
  // kInvalidPacketHandle for a pool drop.
  sim::PacketHandle Admit(hw::IoPacket pkt, sim::Duration handover);
  void CrossPcie(sim::PacketHandle h);
  void InjectHandle(sim::PacketHandle h);
  // The DP burst sink: kNetTx and kBlockIo handles are dispatched inline in
  // burst order; each maximal run of consecutive kNetRx handles is queued on
  // vm_fifo_ and gets one PCIe delivery event, scheduled where the run ends.
  void DispatchFromDp(const sim::PacketHandle* batch, size_t count, sim::SimTime completed);
  // The delivery event of one run: pops `count` handles and hands each to
  // its owner's VM sink, then frees it.
  void DeliverToVm(uint32_t count);

  // kNetRx handles between their DP burst and their VM delivery, in burst
  // order. Every delivery waits the same pcie_dma_cost, so delivery events
  // fire in the order they were scheduled and each one's run is at the
  // front. A power-of-two ring that doubles only when full.
  class HandleFifo {
   public:
    explicit HandleFifo(size_t capacity = 1);
    void Push(sim::PacketHandle h);
    sim::PacketHandle Pop();

   private:
    std::vector<sim::PacketHandle> slots_;
    size_t head_ = 0;
    size_t size_ = 0;
  };

  TestbedConfig config_;
  sim::Simulation sim_;
  sim::Rng rng_;
  obs::FlowMonitor flow_rx_;
  obs::FlowMonitor flow_dp_;
  obs::FlowMonitor flow_tx_;
  std::unique_ptr<hw::Machine> machine_;
  std::unique_ptr<os::Kernel> kernel_;
  std::unique_ptr<core::TaiChi> taichi_;
  std::unique_ptr<cp::DeviceManager> device_manager_;

  os::CpuSet dp_set_;
  os::CpuSet cp_set_;
  os::CpuSet cp_task_cpus_;
  std::vector<os::CpuId> active_dp_cpus_;
  std::vector<uint32_t> queues_;  // queue id per active DP CPU.
  std::vector<std::unique_ptr<dp::PollService>> services_;
  std::vector<std::unique_ptr<dp::OpenLoopSource>> background_;
  std::vector<double> background_base_pps_;  // Start-time rate per source.

  HandleFifo vm_fifo_;
  std::unordered_map<uint16_t, Sink> vm_sinks_;
  std::unordered_map<uint16_t, Sink> wire_sinks_;
  std::unordered_map<uint16_t, Sink> storage_sinks_;
  std::vector<os::Task*> monitor_tasks_;  // Long-lived background CP fleet.
  os::KernelSpinlock monitor_lock_{"monitor_log_lock"};
  obs::Observability* obs_ = nullptr;
  uint32_t taichi_generation_ = 0;
  bool draining_ = false;
  bool dp_boost_ = false;
  // Repeating 200 µs quiescence poll while a TaiChi disable drains.
  sim::EventId drain_event_ = sim::kInvalidEventId;
};

}  // namespace taichi::exp

#endif  // SRC_EXP_TESTBED_H_
