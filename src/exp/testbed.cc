#include "src/exp/testbed.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

#include "src/os/behaviors.h"
#include "src/sim/logging.h"

namespace taichi::exp {

namespace {
// Owner id reserved for background open-loop traffic.
constexpr uint16_t kBackgroundOwner = 1;
}  // namespace

const char* ToString(Mode mode) {
  switch (mode) {
    case Mode::kBaseline:
      return "baseline";
    case Mode::kNaiveCosched:
      return "naive-cosched";
    case Mode::kTaiChi:
      return "taichi";
    case Mode::kTaiChiNoHwProbe:
      return "taichi-no-hwprobe";
    case Mode::kTaiChiVdp:
      return "taichi-vdp";
    case Mode::kType2:
      return "type2-qemu-kvm";
  }
  return "?";
}

Testbed::Testbed(TestbedConfig config)
    : config_(config), sim_(config.seed), rng_(config.seed ^ 0x7a1c41),
      flow_rx_(config.flow_monitor), flow_dp_(config.flow_monitor),
      flow_tx_(config.flow_monitor) {
  hw::MachineConfig mcfg;
  mcfg.num_cpus = config_.total_cpus;
  mcfg.accelerator = config_.accelerator;
  mcfg.packet_pool_capacity = config_.packet_pool_capacity;
  machine_ = std::make_unique<hw::Machine>(&sim_, mcfg);
  kernel_ = std::make_unique<os::Kernel>(&sim_, machine_.get(), os::KernelConfig{});

  machine_->nic().set_flow_monitor(&flow_tx_);
  machine_->accelerator().set_flow_monitor(&flow_rx_);
  machine_->nic().set_sink([this](sim::PacketHandle h) {
    sim::PacketPool& pool = machine_->pool();
    const hw::IoPacket& pkt = pool.Get(h);
    auto it = wire_sinks_.find(OwnerOf(pkt.user_tag));
    if (it != wire_sinks_.end()) {
      it->second(pkt, sim_.Now());
    }
    pool.Free(h);
  });

  BuildTopology();

  const bool is_taichi = config_.mode == Mode::kTaiChi ||
                         config_.mode == Mode::kTaiChiNoHwProbe ||
                         config_.mode == Mode::kTaiChiVdp;
  if (is_taichi) {
    InstallTaiChi();
    // vCPU bring-up (boot IPIs + boot cost).
    sim_.RunFor(sim::Millis(1));
    cp_task_cpus_ = taichi_->cp_task_cpus();
  }

  BuildServices();

  cp::VmStartupConfig vmcfg = config_.vm_startup;
  if (config_.mode == Mode::kType2) {
    vmcfg.ipc_penalty = config_.type2.ipc_to_rpc_penalty;
  }
  device_manager_ = std::make_unique<cp::DeviceManager>(kernel_.get(), vmcfg,
                                                        config_.seed ^ 0xdeb1ce);
}

Testbed::~Testbed() = default;

void Testbed::InstallTaiChi() {
  core::TaiChiConfig tcfg = config_.taichi;
  tcfg.dp_cpus = dp_set_;
  tcfg.cp_cpus = cp_set_;
  tcfg.hw_probe_enabled = config_.mode != Mode::kTaiChiNoHwProbe;
  // Every generation gets fresh CPU and APIC ids: retired vCPUs stay
  // registered with the kernel (there is no CPU unregistration, as on real
  // hardware), so an enable→disable→enable cycle must not collide.
  tcfg.vcpu_apic_base =
      static_cast<uint32_t>(virt::kVcpuApicBase) + taichi_generation_ * 64u;
  ++taichi_generation_;
  taichi_ = std::make_unique<core::TaiChi>(kernel_.get(), tcfg);
}

void Testbed::BuildTopology() {
  assert(config_.dp_cpu_count < static_cast<int>(config_.total_cpus));
  dp_set_ = os::CpuSet::Range(0, config_.dp_cpu_count);
  cp_set_ = os::CpuSet::Range(config_.dp_cpu_count, static_cast<int>(config_.total_cpus));

  int active_dp = config_.dp_cpu_count;
  if (config_.mode == Mode::kType2) {
    // QEMU device emulation + the guest OS permanently occupy DP CPUs.
    active_dp -= config_.type2.dedicated_cpus;
    assert(active_dp > 0);
    for (int i = active_dp; i < config_.dp_cpu_count; ++i) {
      kernel_->Spawn("qemu_emulation_" + std::to_string(i),
                     std::make_unique<os::LambdaBehavior>(
                         [](os::Kernel&, os::Task&, const os::ActionResult&) {
                           return os::Action::BusyPoll(0);
                         }),
                     os::CpuSet::Of({i}), os::Priority::kHigh);
    }
  }
  for (int i = 0; i < active_dp; ++i) {
    active_dp_cpus_.push_back(i);
  }

  switch (config_.mode) {
    case Mode::kBaseline:
    case Mode::kType2:
      cp_task_cpus_ = cp_set_;
      break;
    case Mode::kNaiveCosched:
      cp_task_cpus_ = dp_set_ | cp_set_;
      break;
    default:
      cp_task_cpus_ = cp_set_;  // Extended with vCPUs once Tai Chi is up.
      break;
  }
}

void Testbed::BuildServices() {
  const bool is_taichi = taichi_ != nullptr;
  for (os::CpuId cpu : active_dp_cpus_) {
    uint32_t queue = machine_->accelerator().AddQueue(static_cast<uint32_t>(cpu));
    queues_.push_back(queue);

    dp::PollServiceConfig scfg = config_.dp_service;
    if (config_.mode == Mode::kTaiChiVdp) {
      scfg.virt_work_tax = config_.type1.dp_work_tax;
    }
    dp::YieldPolicy policy = dp::YieldPolicy::kBusyPoll;
    if (config_.mode == Mode::kNaiveCosched) {
      policy = dp::YieldPolicy::kBlockOnIdle;
    }
    auto service = std::make_unique<dp::PollService>(cpu, scfg, policy);
    service->AttachRing(&machine_->accelerator().ring(queue));
    service->set_pool(&machine_->pool());
    service->set_flow_monitor(&flow_dp_);
    service->set_sink(
        [this](const sim::PacketHandle* batch, size_t count, sim::SimTime completed) {
          DispatchFromDp(batch, count, completed);
        });
    os::Task* task = kernel_->Spawn("dp_service_" + std::to_string(cpu),
                                    std::make_unique<os::BehaviorRef>(service.get()),
                                    os::CpuSet::Of({cpu}), os::Priority::kHigh);
    service->BindTask(kernel_.get(), task);
    services_.push_back(std::move(service));
    if (is_taichi) {
      WireServiceProbe(services_.size() - 1);
    }
  }
  // A burst costs at least pcie_dma_cost per packet at the default costs, so
  // each service has at most one burst waiting out the PCIe leg.
  vm_fifo_ = HandleFifo(config_.dp_service.burst_size * services_.size());
}

void Testbed::WireServiceProbe(size_t service_index) {
  dp::PollService* svc = services_[service_index].get();
  svc->AttachTaiChiProbe(&taichi_->sw_probe());
  if (config_.multi_dim_idle) {
    // §9: override the idle check with the multi-dimensional variant.
    const uint32_t queue = queues_[service_index];
    taichi_->sw_probe().RegisterDpService(
        svc->cpu(), [this, svc, queue] {
          return svc->IsIdle() && machine_->accelerator().in_flight(queue) == 0;
        });
  }
}

uint32_t Testbed::queue_for_flow(uint64_t flow) const {
  return queues_[flow % queues_.size()];
}

sim::PacketHandle Testbed::Admit(hw::IoPacket pkt, sim::Duration handover) {
  pkt.queue = queue_for_flow(pkt.flow);
  if (pkt.created == 0) {
    pkt.created = sim_.Now() + handover;
  }
  const sim::PacketHandle h = machine_->pool().Alloc(pkt);
  if (h == sim::kInvalidPacketHandle) {
    machine_->accelerator().CountPoolDrop();
  }
  return h;
}

// Every event below captures only {this, handle}, which stays inline in the
// event slot: the packet is copied once, into the arena, per traversal.
void Testbed::Inject(hw::IoPacket pkt, sim::Duration handover) {
  const sim::PacketHandle h = Admit(pkt, handover);
  if (h == sim::kInvalidPacketHandle) {
    return;
  }
  if (handover == 0) {
    InjectHandle(h);
  } else {
    sim_.Schedule(handover, [this, h] { InjectHandle(h); });
  }
}

void Testbed::InjectFromWire(hw::IoPacket pkt) {
  const sim::PacketHandle h = Admit(pkt, 0);
  if (h != sim::kInvalidPacketHandle) {
    sim_.Schedule(config_.wire_latency, [this, h] { InjectHandle(h); });
  }
}

void Testbed::InjectFromVm(hw::IoPacket pkt, sim::Duration handover) {
  const sim::PacketHandle h = Admit(pkt, handover);
  if (h == sim::kInvalidPacketHandle) {
    return;
  }
  // The PCIe leg is scheduled at the hand-over, not folded into one event,
  // so it takes its place among the events of that instant.
  if (handover == 0) {
    CrossPcie(h);
  } else {
    sim_.Schedule(handover, [this, h] { CrossPcie(h); });
  }
}

void Testbed::CrossPcie(sim::PacketHandle h) {
  sim_.Schedule(config_.pcie_dma_cost, [this, h] { InjectHandle(h); });
}

void Testbed::InjectHandle(sim::PacketHandle h) {
  const uint32_t queue = machine_->pool().Get(h).queue;
  machine_->accelerator().IngressHandle(queue, h);
}

void Testbed::DispatchFromDp(const sim::PacketHandle* batch, size_t count,
                             sim::SimTime completed) {
  sim::PacketPool& pool = machine_->pool();
  uint32_t run = 0;  // kNetRx handles queued since the last delivery event.
  // Per-packet delivery events would all share one time and consecutive
  // sequence numbers, so nothing could run between a run's deliveries; one
  // event per run keeps that order. Scheduling it before dispatching the
  // next non-kNetRx handle keeps whatever that handle schedules after it.
  auto flush = [&] {
    if (run > 0) {
      sim_.Schedule(config_.pcie_dma_cost, [this, n = run] { DeliverToVm(n); });
      run = 0;
    }
  };
  for (size_t i = 0; i < count; ++i) {
    const sim::PacketHandle h = batch[i];
    const hw::IoPacket& pkt = pool.Get(h);
    switch (pkt.kind) {
      case hw::IoKind::kNetRx:
        vm_fifo_.Push(h);
        ++run;
        break;
      case hw::IoKind::kNetTx:
        flush();
        machine_->nic().Transmit(h);  // The port owns the handle from here.
        break;
      case hw::IoKind::kBlockIo: {
        flush();
        auto it = storage_sinks_.find(OwnerOf(pkt.user_tag));
        if (it != storage_sinks_.end()) {
          it->second(pkt, completed);
        }
        pool.Free(h);
        break;
      }
    }
  }
  flush();
}

void Testbed::DeliverToVm(uint32_t count) {
  sim::PacketPool& pool = machine_->pool();
  const sim::SimTime now = sim_.Now();
  // Looked up once per run of equal owners. Elements of an unordered_map
  // stay put when other keys are inserted, so a sink may register sinks.
  Sink* sink = nullptr;
  uint16_t owner = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const sim::PacketHandle h = vm_fifo_.Pop();
    const hw::IoPacket& pkt = pool.Get(h);
    if (i == 0 || OwnerOf(pkt.user_tag) != owner) {
      owner = OwnerOf(pkt.user_tag);
      auto it = vm_sinks_.find(owner);
      sink = it != vm_sinks_.end() ? &it->second : nullptr;
    }
    if (sink != nullptr) {
      (*sink)(pkt, now);
    }
    pool.Free(h);
  }
}

Testbed::HandleFifo::HandleFifo(size_t capacity)
    : slots_(std::bit_ceil(std::max<size_t>(capacity, 1))) {}

void Testbed::HandleFifo::Push(sim::PacketHandle h) {
  if (size_ == slots_.size()) {
    // Full: unroll the ring so it starts at slot 0, then double it.
    std::rotate(slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(head_),
                slots_.end());
    head_ = 0;
    slots_.resize(slots_.size() * 2);
  }
  slots_[(head_ + size_) & (slots_.size() - 1)] = h;
  ++size_;
}

sim::PacketHandle Testbed::HandleFifo::Pop() {
  assert(size_ > 0 && "VM delivery event without a queued handle");
  const sim::PacketHandle h = slots_[head_];
  head_ = (head_ + 1) & (slots_.size() - 1);
  --size_;
  return h;
}

sim::Duration Testbed::VmStackDelay() {
  return config_.vm_stack_base + rng_.UniformDuration(0, config_.vm_stack_jitter);
}

double Testbed::RateForUtilization(double utilization, uint32_t size_bytes) const {
  double per_packet_ns = static_cast<double>(config_.dp_service.per_packet_base_cost) +
                         size_bytes * config_.dp_service.ns_per_byte;
  return utilization * 1e9 / per_packet_ns;
}

void Testbed::StartBackgroundSources(
    uint32_t size_bytes, uint64_t seed_stride,
    sim::FunctionRef<void(size_t, dp::OpenLoopConfig&)> shape) {
  RegisterVmSink(kBackgroundOwner, [this](const hw::IoPacket& pkt, sim::SimTime t) {
    size_t idx = pkt.flow % background_.size();
    background_[idx]->OnDelivered(pkt, t);
  });
  for (size_t i = 0; i < active_dp_cpus_.size(); ++i) {
    dp::OpenLoopConfig ocfg;
    shape(i, ocfg);
    ocfg.size_bytes = size_bytes;
    ocfg.kind = hw::IoKind::kNetRx;
    ocfg.flow = i;
    ocfg.flow_count = config_.background_flow_count;
    ocfg.flow_skew = config_.background_flow_skew;
    ocfg.flow_salt = config_.background_flow_salt;
    ocfg.user_tag = Tag(kBackgroundOwner, i);
    auto src = std::make_unique<dp::OpenLoopSource>(&sim_, &machine_->accelerator(),
                                                    queues_[i], ocfg,
                                                    config_.seed * seed_stride + i);
    src->Start();
    if (obs_ != nullptr) {
      src->RegisterMetrics(obs_->metrics, "src" + std::to_string(background_.size()));
    }
    background_base_pps_.push_back(ocfg.rate_pps);
    background_.push_back(std::move(src));
  }
}

void Testbed::StartBackgroundLoad(double per_cpu_rate_pps, uint32_t size_bytes,
                                  dp::OpenLoopConfig::Process process) {
  StartBackgroundSources(size_bytes, 77, [&](size_t, dp::OpenLoopConfig& ocfg) {
    ocfg.rate_pps = per_cpu_rate_pps;
    ocfg.process = process;
  });
}

void Testbed::StartBackgroundBurstyLoad(double avg_utilization, uint32_t size_bytes) {
  StartBackgroundBurstyLoadPerCpu({avg_utilization}, size_bytes);
}

void Testbed::StartBackgroundBurstyLoadPerCpu(const std::vector<double>& utils,
                                              uint32_t size_bytes) {
  assert(!utils.empty());
  // On/off modulation: calm floor of ~1% utilization, bursts near peak; the
  // burst duty cycle is chosen per CPU to hit its requested average.
  constexpr double kCalmUtil = 0.01;
  constexpr double kBurstUtil = 0.90;
  const sim::Duration burst_mean = sim::Millis(2);
  StartBackgroundSources(size_bytes, 91, [&](size_t i, dp::OpenLoopConfig& ocfg) {
    double util = utils[std::min(i, utils.size() - 1)];
    double duty = std::clamp((util - kCalmUtil) / (kBurstUtil - kCalmUtil), 0.0, 1.0);
    ocfg.rate_pps = RateForUtilization(kCalmUtil, size_bytes);
    ocfg.process = dp::OpenLoopConfig::Process::kMmpp;
    ocfg.burst_multiplier = kBurstUtil / kCalmUtil;
    ocfg.burst_mean = burst_mean;
    ocfg.calm_mean = duty > 0 ? static_cast<sim::Duration>(burst_mean * (1.0 - duty) / duty)
                              : sim::Seconds(1000);
  });
}

void Testbed::StopBackgroundLoad() {
  for (auto& src : background_) {
    src->Stop();
  }
}

void Testbed::ScaleBackgroundLoad(double factor) {
  for (size_t i = 0; i < background_.size(); ++i) {
    background_[i]->set_rate(background_base_pps_[i] * factor);
  }
}

sim::Duration Testbed::TotalDpWork() const {
  sim::Duration total = 0;
  for (const auto& service : services_) {
    total += service->work_time();
  }
  return total;
}

void Testbed::SpawnBackgroundCp() {
  if (!config_.spawn_monitors) {
    return;
  }
  std::vector<os::Task*> tasks = cp::SpawnMonitorFleet(kernel_.get(), config_.monitors,
                                                       cp_task_cpus_, &monitor_lock_,
                                                       config_.seed ^ 0x3a0b17);
  monitor_tasks_.insert(monitor_tasks_.end(), tasks.begin(), tasks.end());
}

void Testbed::StallAccelerator(sim::Duration duration) {
  machine_->accelerator().Stall(duration);
}

std::vector<os::Task*> Testbed::SpawnCpFlood(int count, uint64_t iterations, uint64_t salt) {
  std::vector<os::Task*> tasks;
  tasks.reserve(static_cast<size_t>(std::max(0, count)));
  for (int i = 0; i < count; ++i) {
    cp::CpWorkProfile profile;
    // Heavier than the monitor fleet: every iteration syscalls, and half the
    // routines grab the shared driver lock the monitors also use.
    profile.syscall_prob = 1.0;
    profile.short_routine_prob = 0.80;
    profile.lock_prob = 0.50;
    profile.lock = &monitor_lock_;
    const uint64_t seed = config_.seed ^ salt ^ (0x9e3779b97f4a7c15ULL * (i + 1));
    os::Task* task = kernel_->Spawn("cp_flood_" + std::to_string(i),
                                    cp::MakeCpTask(profile, iterations, seed), cp_task_cpus_);
    tasks.push_back(task);
  }
  return tasks;
}

os::Task* Testbed::SpawnHotplugStorm(int ops, sim::Duration routine, uint64_t salt) {
  std::vector<os::Action> script;
  script.reserve(static_cast<size_t>(std::max(0, ops)) * 2 + 1);
  for (int i = 0; i < ops; ++i) {
    // A sliver of user-space setup between ops keeps the task preemptible at
    // the op boundary — hotplug storms serialize on stop_machine, they do not
    // fuse into one giant section.
    script.push_back(os::Action::Compute(sim::Micros(20)));
    script.push_back(os::Action::KernelSection(routine));
  }
  script.push_back(os::Action::Exit());
  return kernel_->Spawn("hotplug_storm_" + std::to_string(salt),
                        std::make_unique<os::ScriptBehavior>(std::move(script)), cp_task_cpus_,
                        os::Priority::kHigh);
}

void Testbed::EnableTaiChi() {
  if (draining_) {
    // Re-enabling while the previous disable is still draining would install
    // a second framework on top of vCPUs the drain poll is about to destroy.
    // Callers must wait for taichi_draining() to clear (the autopilot does).
    TAICHI_ERROR(sim_.Now(), "testbed: EnableTaiChi while the previous disable "
                 "is still draining");
    assert(!draining_ && "EnableTaiChi during an in-flight DisableTaiChi drain");
    return;
  }
  if (taichi_ != nullptr) {
    TAICHI_ERROR(sim_.Now(), "testbed: EnableTaiChi while Tai Chi is already installed");
    return;
  }
  if (config_.mode != Mode::kBaseline) {
    TAICHI_ERROR(sim_.Now(), "testbed: runtime enable is only supported from mode "
                 "baseline, not %s", ToString(config_.mode));
    return;
  }
  const int vcpus = config_.taichi.num_vcpus;
  if (kernel_->num_cpus() + vcpus > 64) {
    TAICHI_ERROR(sim_.Now(), "testbed: out of CPU ids (%d registered, %d more wanted)",
                 kernel_->num_cpus(), vcpus);
    return;
  }
  InstallTaiChi();
  ResumeDonation();
  if (obs_ != nullptr) {
    taichi_->AttachObservability(obs_);
  }
}

void Testbed::SetDpBoost(bool on) {
  if (on == dp_boost_) {
    return;
  }
  if (taichi_ == nullptr || draining_) {
    TAICHI_ERROR(sim_.Now(), "testbed: SetDpBoost needs an active Tai Chi");
    return;
  }
  // §8 inverse repartitioning, runtime edition: on, the DP CPUs run
  // undisturbed busy-poll at full throughput and the vCPU pool idles out on
  // its own (no backed vCPU without runnable work). The framework stays
  // installed so reverting is cheap.
  if (on) {
    PauseDonation();
  } else {
    ResumeDonation();
  }
  dp_boost_ = on;
}

void Testbed::DisableTaiChi() {
  if (taichi_ == nullptr || draining_) {
    TAICHI_ERROR(sim_.Now(), "testbed: DisableTaiChi without an active Tai Chi");
    return;
  }
  // A disable supersedes any boost; from here the probes are detached and
  // cp_task_cpus_ narrowed regardless (re-detaching is a no-op).
  dp_boost_ = false;
  // A task frozen inside a preempted vCPU leaves it only at its next
  // preemptible boundary, which requires the vCPU to keep getting backed
  // until then — hence the drain below runs with the scheduler alive.
  PauseDonation();
  draining_ = true;
  ScheduleDrainCheck();
}

void Testbed::PauseDonation() {
  for (auto& service : services_) {
    service->DetachTaiChiProbe(dp::YieldPolicy::kBusyPoll);
  }
  cp_task_cpus_ = cp_set_;
  const os::CpuSet vcpus = taichi_->vcpu_set();
  for (const auto& task : kernel_->tasks()) {
    if (task->state() == os::TaskState::kExited) {
      continue;
    }
    if (!(task->affinity() & vcpus).empty()) {
      kernel_->SetTaskAffinity(task.get(), cp_set_);
    }
  }
}

void Testbed::ResumeDonation() {
  for (size_t i = 0; i < services_.size(); ++i) {
    WireServiceProbe(i);
  }
  cp_task_cpus_ = taichi_->cp_task_cpus();
  for (os::Task* task : monitor_tasks_) {
    if (task->state() != os::TaskState::kExited) {
      kernel_->SetTaskAffinity(task, cp_task_cpus_);
    }
  }
}

bool Testbed::TaiChiQuiesced() const {
  for (const virt::VcpuInfo& v : taichi_->pool().vcpus()) {
    if (kernel_->cpu_backed(v.cpu) || kernel_->runnable_count(v.cpu) > 0 ||
        kernel_->current_task(v.cpu) != nullptr) {
      return false;
    }
  }
  return true;
}

void Testbed::ScheduleDrainCheck() {
  // One repeating poll per drain; ends itself when the drain resolves.
  drain_event_ = sim_.ScheduleRepeating(sim::Micros(200), [this] {
    if (!draining_) {
      sim_.Cancel(drain_event_);
      drain_event_ = sim::kInvalidEventId;
      return;
    }
    if (TaiChiQuiesced()) {
      sim_.Cancel(drain_event_);
      drain_event_ = sim::kInvalidEventId;
      FinishDisableTaiChi();
    }
  });
}

void Testbed::FinishDisableTaiChi() {
  if (obs_ != nullptr) {
    // The next enable would re-register these names; deregister so the
    // registry never holds pointers into a destroyed framework.
    obs_->metrics.RemovePrefix("sched.");
    obs_->metrics.RemovePrefix("ipi.");
    obs_->metrics.RemovePrefix("sw_probe.");
  }
  taichi_.reset();
  draining_ = false;
}

void Testbed::AttachObservability(obs::Observability* obs) {
  obs_ = obs;
  obs::TraceRecorder* tracer = obs != nullptr ? &obs->trace : nullptr;
  kernel_->set_tracer(tracer);
  machine_->apic().set_tracer(tracer);
  machine_->accelerator().set_tracer(tracer);
  machine_->probe().set_tracer(tracer);
  for (auto& service : services_) {
    service->set_tracer(tracer);
  }
  if (taichi_ != nullptr) {
    taichi_->AttachObservability(obs);
  }
  if (obs == nullptr) {
    return;
  }
  kernel_->RegisterMetrics(obs->metrics);
  machine_->apic().RegisterMetrics(obs->metrics);
  machine_->accelerator().RegisterMetrics(obs->metrics);
  // Canonical per-node rx drop signals: descriptor-ring overflow and packet
  // arena exhaustion. Scenario verdicts read these to surface overload.
  obs->metrics.AddCounterFn("rx.ring_drops",
                            [this] { return machine_->accelerator().ring_drops(); });
  obs->metrics.AddCounterFn("rx.pool_drops",
                            [this] { return machine_->accelerator().pool_drops(); });
  machine_->probe().RegisterMetrics(obs->metrics);
  for (auto& service : services_) {
    service->RegisterMetrics(obs->metrics, "dp.svc" + std::to_string(service->cpu()));
  }
  for (size_t i = 0; i < background_.size(); ++i) {
    background_[i]->RegisterMetrics(obs->metrics, "src" + std::to_string(i));
  }
  device_manager_->RegisterMetrics(obs->metrics);
  monitor_lock_.RegisterMetrics(obs->metrics);
  flow_rx_.RegisterMetrics(obs->metrics, "flows.rx.");
  flow_dp_.RegisterMetrics(obs->metrics, "flows.dp.");
  flow_tx_.RegisterMetrics(obs->metrics, "flows.tx.");
}

}  // namespace taichi::exp
