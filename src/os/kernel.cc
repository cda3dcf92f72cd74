#include "src/os/kernel.h"

#include <algorithm>
#include <cassert>

#include "src/sim/logging.h"

namespace taichi::os {
namespace {

hw::IrqVector VectorFor(IpiType type) {
  switch (type) {
    case IpiType::kResched:
      return hw::IrqVector::kResched;
    case IpiType::kBoot:
      return hw::IrqVector::kBoot;
    case IpiType::kFunctionCall:
      return hw::IrqVector::kFunctionCall;
  }
  return hw::IrqVector::kResched;
}

IpiType TypeForVector(hw::IrqVector v) {
  switch (v) {
    case hw::IrqVector::kResched:
      return IpiType::kResched;
    case hw::IrqVector::kBoot:
      return IpiType::kBoot;
    default:
      return IpiType::kFunctionCall;
  }
}

}  // namespace

Kernel::Kernel(sim::Simulation* sim, hw::Machine* machine, KernelConfig config)
    : sim_(sim), machine_(machine), config_(config) {
  // The machine's physical CPUs boot with the kernel.
  for (uint32_t i = 0; i < machine_->num_cpus(); ++i) {
    CpuId id = RegisterCpu(CpuKind::kPhysical, machine_->cpu_apic_id(i));
    OsCpu& c = cpu(id);
    c.online = true;
    c.backed = true;
    c.last_account = sim_->Now();
  }
}

Kernel::~Kernel() {
  for (auto& c : cpus_) {
    if (c->kind == CpuKind::kPhysical) {
      machine_->apic().UnregisterHandler(c->apic_id);
    }
  }
}

CpuId Kernel::RegisterCpu(CpuKind kind, hw::ApicId apic_id) {
  auto c = std::make_unique<OsCpu>();
  c->id = static_cast<CpuId>(cpus_.size());
  c->apic_id = apic_id;
  c->kind = kind;
  CpuId id = c->id;
  cpus_.push_back(std::move(c));
  if (tracer_ != nullptr) {
    tracer_->SetTrackName(id, (kind == CpuKind::kVirtual ? "vcpu" : "cpu") + std::to_string(id));
  }
  if (kind == CpuKind::kPhysical) {
    machine_->apic().RegisterHandler(
        apic_id, [this, id](hw::IrqVector vector, hw::ApicId from) {
          OnHwInterrupt(id, vector, from);
        });
  }
  return id;
}

void Kernel::set_tracer(obs::TraceRecorder* tracer) {
  tracer_ = tracer;
  if (tracer_ == nullptr) {
    return;
  }
  for (const auto& c : cpus_) {
    tracer_->SetTrackName(
        c->id, (c->kind == CpuKind::kVirtual ? "vcpu" : "cpu") + std::to_string(c->id));
  }
}

void Kernel::RegisterMetrics(obs::MetricsRegistry& registry, const std::string& prefix) const {
  registry.AddCounter(prefix + ".context_switches", &context_switches_);
  registry.AddCounter(prefix + ".guest_entries", &guest_entries_);
  registry.AddCounter(prefix + ".guest_exits", &guest_exits_);
  registry.AddCounter(prefix + ".ipis_sent", &ipis_sent_);
  registry.AddCounter(prefix + ".softirqs_run", &softirqs_run_);
  registry.AddCounter(prefix + ".steals", &steals_);
}

void Kernel::OnlineCpu(CpuId id) {
  if (cpu(id).online) {
    return;
  }
  SendIpi(kInvalidCpu, id, IpiType::kBoot);
}

void Kernel::MarkCpuOnline(CpuId id) {
  OsCpu& c = cpu(id);
  if (c.online) {
    return;
  }
  c.online = true;
  c.last_account = sim_->Now();
  if (c.kind == CpuKind::kPhysical) {
    c.backed = true;
    Dispatch(id);
  }
  // Virtual CPUs stay unbacked until the vCPU scheduler places them.
}

size_t Kernel::runnable_count(CpuId id) const {
  const OsCpu& c = cpu(id);
  size_t n = 0;
  for (const auto& q : c.rq) {
    n += q.size();
  }
  return n;
}

bool Kernel::CpuIdle(CpuId id) const {
  const OsCpu& c = cpu(id);
  return c.online && c.current == nullptr && runnable_count(id) == 0 &&
         c.guest == kInvalidCpu;
}

bool Kernel::CpuInNonPreemptibleContext(CpuId id) const {
  const Task* t = cpu(id).current;
  return t != nullptr && t->non_preemptible();
}

bool Kernel::CpuHasWork(CpuId id) const {
  const OsCpu& c = cpu(id);
  return c.current != nullptr || runnable_count(id) > 0 || !c.pending_ipis.empty();
}

CpuAccounting Kernel::GetAccounting(CpuId id) {
  Account(cpu(id));
  return cpu(id).acct;
}

// ---- Tasks ----------------------------------------------------------------

Task* Kernel::Spawn(std::string name, std::unique_ptr<Behavior> behavior, CpuSet affinity,
                    Priority priority) {
  assert(!affinity.empty());
  auto owned = std::make_unique<Task>(next_task_id_++, std::move(name), priority, affinity,
                                      std::move(behavior));
  Task* t = owned.get();
  tasks_.push_back(std::move(owned));
  t->spawned_at_ = sim_->Now();
  t->state_ = TaskState::kRunnable;
  EnqueueAndKick(t, kInvalidCpu);
  return t;
}

void Kernel::Wake(Task* t, CpuId from) {
  if (t->state_ != TaskState::kSleeping && t->state_ != TaskState::kBlocked) {
    return;  // Already runnable/running; double wakes are no-ops.
  }
  t->state_ = TaskState::kRunnable;
  EnqueueAndKick(t, from);
}

void Kernel::SetTaskAffinity(Task* t, CpuSet affinity) {
  assert(!affinity.empty());
  t->affinity_ = affinity;
  switch (t->state_) {
    case TaskState::kRunnable: {
      if (affinity.Test(t->cpu_)) {
        return;  // Current queue is still legal.
      }
      // Remove from its run queue and re-place.
      OsCpu& c = cpu(t->cpu_);
      for (auto& q : c.rq) {
        for (auto it = q.begin(); it != q.end(); ++it) {
          if (*it == t) {
            q.erase(it);
            EnqueueAndKick(t, kInvalidCpu);
            return;
          }
        }
      }
      return;
    }
    case TaskState::kRunning: {
      if (affinity.Test(t->cpu_)) {
        return;
      }
      // Migrate at the next preemptible boundary: requeue onto a legal CPU.
      OsCpu& c = cpu(t->cpu_);
      if (c.current == t && CpuExecuting(c) && !t->non_preemptible()) {
        CpuId old_cpu = c.id;
        Account(c);
        FreezeSegment(c);
        t->state_ = TaskState::kRunnable;
        c.current = nullptr;
        if (tracer_ != nullptr) {
          tracer_->End(sim_->Now(), old_cpu);
        }
        EnqueueAndKick(t, kInvalidCpu);
        StartNext(old_cpu);
      } else {
        c.need_resched = true;  // Picked up when preemption re-enables.
      }
      return;
    }
    default:
      return;  // Sleeping/blocked tasks are placed by the next wake.
  }
}

void Kernel::KickTask(Task* t) {
  if (t->state_ == TaskState::kRunning && t->has_pending_ &&
      t->pending_.type == Action::Type::kBusyPoll) {
    OsCpu& c = cpu(t->cpu_);
    if (c.current == t && CpuExecuting(c) && c.seg_event != sim::kInvalidEventId) {
      sim_->Cancel(c.seg_event);
      c.seg_event = sim::kInvalidEventId;
      // Account the partial poll time.
      sim::Duration elapsed = sim_->Now() - c.seg_start;
      t->remaining_ = std::min(t->remaining_, elapsed);
      CompleteSegment(t->cpu_, /*busy_poll_timeout=*/false);
    } else if (c.current == t && CpuExecuting(c) && c.seg_event == sim::kInvalidEventId) {
      // Unbounded poll: complete immediately.
      t->remaining_ = 0;
      CompleteSegment(t->cpu_, /*busy_poll_timeout=*/false);
    } else {
      // Frozen (lent/unbacked CPU): mark the poll done so the behavior
      // re-evaluates on resume.
      t->has_pending_ = false;
      t->action_begun_ = false;
      t->last_result_ = {Action::Type::kBusyPoll, false};
    }
    return;
  }
  Wake(t);
}

sim::Duration Kernel::TaskCpuTime(const Task& t) const {
  sim::Duration total = t.cpu_time_;
  if (t.state_ == TaskState::kRunning && t.cpu_ != kInvalidCpu) {
    const OsCpu& c = cpu(t.cpu_);
    if (c.current == &t && c.seg_event != sim::kInvalidEventId) {
      sim::Duration elapsed = sim_->Now() - c.seg_start;
      total += std::min(elapsed, t.remaining_);
    }
  }
  return total;
}

void Kernel::EnqueueTask(Task* t, CpuId id) {
  OsCpu& c = cpu(id);
  t->cpu_ = id;
  c.rq[static_cast<int>(t->priority_)].push_back(t);
}

CpuId Kernel::ChooseCpuFor(const Task& t) const {
  CpuId best = kInvalidCpu;
  size_t best_load = SIZE_MAX;
  for (CpuId id = 0; id < num_cpus(); ++id) {
    if (!t.affinity().Test(id) || !cpu(id).online) {
      continue;
    }
    size_t load = runnable_count(id) + (cpu(id).current != nullptr ? 1 : 0);
    if (load == 0) {
      return id;  // Idle CPU: take the first one for determinism.
    }
    if (load < best_load) {
      best_load = load;
      best = id;
    }
  }
  assert(best != kInvalidCpu && "no online CPU in task affinity");
  return best;
}

void Kernel::EnqueueAndKick(Task* t, CpuId from) {
  CpuId id = ChooseCpuFor(*t);
  EnqueueTask(t, id);
  OsCpu& c = cpu(id);
  bool need_kick = false;
  if (!c.backed || c.mode != CpuMode::kHost) {
    need_kick = true;  // Sleeping vCPU or lent pCPU: the router must act.
  } else if (c.current == nullptr) {
    need_kick = true;  // Idle CPU.
  } else if (static_cast<int>(t->priority_) > static_cast<int>(c.current->priority_)) {
    need_kick = true;  // Wake preemption.
  }
  if (need_kick) {
    SendIpi(from, id, IpiType::kResched);
  }
}

// ---- IPIs ------------------------------------------------------------------

void Kernel::SendIpi(CpuId from, CpuId to, IpiType type) {
  ipis_sent_.Inc();
  if (tracer_ != nullptr) {
    tracer_->Instant(sim_->Now(), from == kInvalidCpu ? to : from, obs::TraceCategory::kIpi,
                     "ipi_send", static_cast<uint64_t>(to), static_cast<uint64_t>(type));
  }
  if (router_ != nullptr) {
    router_->Route(from, to, type);
  } else {
    RouteDefault(from, to, type);
  }
}

void Kernel::RouteDefault(CpuId from, CpuId to, IpiType type) {
  OsCpu& dst = cpu(to);
  if (dst.kind == CpuKind::kPhysical) {
    hw::ApicId from_apic =
        from == kInvalidCpu ? hw::kInvalidApicId : cpu(from).apic_id;
    machine_->apic().Send(from_apic, dst.apic_id, VectorFor(type));
  } else {
    // No orchestrator installed: deliver functionally with the same latency.
    sim_->Schedule(machine_->apic().delivery_latency(),
                   [this, to, type] { HandleIpiAt(to, type); });
  }
}

void Kernel::HandleIpiAt(CpuId id, IpiType type) {
  OsCpu& c = cpu(id);
  if (tracer_ != nullptr) {
    tracer_->Instant(sim_->Now(), id, obs::TraceCategory::kIpi, "ipi_recv",
                     static_cast<uint64_t>(type));
  }
  switch (type) {
    case IpiType::kBoot:
      if (!c.online) {
        sim_->Schedule(config_.boot_cost, [this, id] { MarkCpuOnline(id); });
      }
      return;
    case IpiType::kFunctionCall:
      return;
    case IpiType::kResched:
      break;
  }
  if (!c.online) {
    return;
  }
  if (!CpuExecuting(c)) {
    // Unbacked vCPU or lent/transitioning pCPU: remember the intent; the
    // resume paths re-dispatch.
    c.pending_ipis.push_back(type);
    return;
  }
  if (c.current == nullptr) {
    Dispatch(id);
    return;
  }
  Task* t = c.current;
  if (HigherPriorityWaiting(c, t->priority_)) {
    if (!t->non_preemptible()) {
      RequeueCurrent(id);
      StartNext(id);
    } else {
      c.need_resched = true;
    }
  }
}

void Kernel::OnHwInterrupt(CpuId id, hw::IrqVector vector, hw::ApicId /*from*/) {
  OsCpu& c = cpu(id);
  if (tracer_ != nullptr) {
    tracer_->Instant(sim_->Now(), id, obs::TraceCategory::kIrq, "irq",
                     static_cast<uint64_t>(vector));
  }
  if (!c.online) {
    if (vector == hw::IrqVector::kBoot) {
      sim_->Schedule(config_.boot_cost, [this, id] { MarkCpuOnline(id); });
    }
    return;
  }
  switch (c.mode) {
    case CpuMode::kTransition:
      c.pending_irqs.push_back(vector);
      return;
    case CpuMode::kGuest:
      // Any external interrupt forces a VM-exit (§3.4: vCPU contexts can be
      // interrupted at any time).
      c.pending_irqs.push_back(vector);
      ExitGuest(id, GuestExitReason::kExternalInterrupt, vector);
      return;
    case CpuMode::kHost:
      HandleIrqHost(id, vector);
      return;
  }
}

void Kernel::HandleIrqHost(CpuId id, hw::IrqVector vector) {
  switch (vector) {
    case hw::IrqVector::kResched:
    case hw::IrqVector::kBoot:
    case hw::IrqVector::kFunctionCall:
      HandleIpiAt(id, TypeForVector(vector));
      return;
    default:
      // kDpWorkload in host mode is masked/spurious by design (the probe's
      // P-state check makes this rare); other vectors are ignored.
      return;
  }
}

// ---- Softirqs ---------------------------------------------------------------

void Kernel::RegisterSoftirq(int nr, std::function<void(CpuId)> handler) {
  assert(nr >= 0 && nr < kNumSoftirqs);
  softirq_handlers_[nr] = std::move(handler);
}

void Kernel::RaiseSoftirq(CpuId id, int nr) {
  assert(nr >= 0 && nr < kNumSoftirqs);
  OsCpu& c = cpu(id);
  c.pending_softirqs |= 1u << nr;
  sim_->Schedule(config_.softirq_latency, [this, id] { TryRunSoftirqs(id); });
}

void Kernel::TryRunSoftirqs(CpuId id) {
  OsCpu& c = cpu(id);
  if (c.pending_softirqs == 0 || !CpuExecuting(c)) {
    return;  // Retried when the CPU resumes host execution.
  }
  if (c.current != nullptr && c.current->non_preemptible()) {
    return;  // Retried at the next preemptible boundary.
  }
  FreezeSegment(c);
  while (c.pending_softirqs != 0) {
    int nr = __builtin_ctz(c.pending_softirqs);
    c.pending_softirqs &= ~(1u << nr);
    softirqs_run_.Inc();
    if (tracer_ != nullptr) {
      tracer_->Instant(sim_->Now(), id, obs::TraceCategory::kIrq, "softirq",
                       static_cast<uint64_t>(nr));
    }
    if (softirq_handlers_[nr]) {
      softirq_handlers_[nr](id);
    }
    if (!CpuExecuting(c)) {
      return;  // The handler lent this CPU to a vCPU (Tai Chi switch).
    }
  }
  if (c.current != nullptr) {
    ResumeSegment(id);
  } else {
    Dispatch(id);
  }
}

// ---- Scheduling core ---------------------------------------------------------

bool Kernel::HigherPriorityWaiting(const OsCpu& c, Priority prio) const {
  for (int p = static_cast<int>(prio) + 1; p < kNumPriorities; ++p) {
    if (!c.rq[p].empty()) {
      return true;
    }
  }
  return false;
}

bool Kernel::SameOrHigherWaiting(const OsCpu& c, Priority prio) const {
  for (int p = static_cast<int>(prio); p < kNumPriorities; ++p) {
    if (!c.rq[p].empty()) {
      return true;
    }
  }
  return false;
}

void Kernel::Dispatch(CpuId id) {
  OsCpu& c = cpu(id);
  if (!CpuExecuting(c)) {
    return;
  }
  if (c.current != nullptr) {
    return;  // Already running something.
  }
  StartNext(id);
}

Task* Kernel::PickNext(OsCpu& c) {
  for (int p = kNumPriorities - 1; p >= 0; --p) {
    if (!c.rq[p].empty()) {
      Task* t = c.rq[p].front();
      c.rq[p].pop_front();
      return t;
    }
  }
  return nullptr;
}

bool Kernel::TrySteal(CpuId id) {
  // Pull a runnable task from the most loaded CPU that allows it here.
  CpuId donor = kInvalidCpu;
  size_t donor_load = 0;
  for (CpuId other = 0; other < num_cpus(); ++other) {
    if (other == id || !cpu(other).online) {
      continue;
    }
    size_t load = runnable_count(other);
    if (load <= donor_load) {
      continue;
    }
    // Check it has at least one stealable task.
    for (int p = kNumPriorities - 1; p >= 0; --p) {
      for (Task* t : cpu(other).rq[p]) {
        if (t->affinity().Test(id)) {
          donor = other;
          donor_load = load;
          goto next_donor;
        }
      }
    }
  next_donor:;
  }
  if (donor == kInvalidCpu) {
    return false;
  }
  OsCpu& d = cpu(donor);
  for (int p = kNumPriorities - 1; p >= 0; --p) {
    for (auto it = d.rq[p].begin(); it != d.rq[p].end(); ++it) {
      if ((*it)->affinity().Test(id)) {
        Task* t = *it;
        d.rq[p].erase(it);
        EnqueueTask(t, id);
        steals_.Inc();
        return true;
      }
    }
  }
  return false;
}

void Kernel::StartNext(CpuId id) {
  OsCpu& c = cpu(id);
  assert(c.current == nullptr);
  Account(c);
  Task* t = PickNext(c);
  if (t == nullptr && TrySteal(id)) {
    t = PickNext(c);
  }
  if (t == nullptr) {
    StopTick(id);
    if (c.kind == CpuKind::kVirtual && guest_halt_handler_) {
      // The vCPU's idle loop executes HLT; the controller typically exits
      // guest mode and marks the vCPU sleeping.
      guest_halt_handler_(id);
    } else if (c.kind == CpuKind::kPhysical && idle_handler_) {
      idle_handler_(id);
    }
    return;
  }
  c.current = t;
  t->state_ = TaskState::kRunning;
  t->cpu_ = id;
  t->ran_in_slice_ = 0;
  context_switches_.Inc();
  if (tracer_ != nullptr) {
    tracer_->Begin(sim_->Now(), id, obs::TraceCategory::kSched, t->name().c_str(), t->id());
  }
  c.pending_switch_cost = config_.context_switch_cost;
  StartTick(id);
  t->behavior().OnScheduledIn(*this, *t);
  ExecuteCurrent(id);
}

void Kernel::RequeueCurrent(CpuId id) {
  OsCpu& c = cpu(id);
  Task* t = c.current;
  assert(t != nullptr);
  Account(c);
  FreezeSegment(c);
  t->state_ = TaskState::kRunnable;
  c.current = nullptr;
  if (tracer_ != nullptr) {
    tracer_->End(sim_->Now(), id);
  }
  if (!t->affinity().Test(id)) {
    // Affinity changed while running here: migrate to a legal CPU.
    EnqueueAndKick(t, kInvalidCpu);
    return;
  }
  c.rq[static_cast<int>(t->priority_)].push_back(t);
}

void Kernel::FreezeSegment(OsCpu& c) {
  Task* t = c.current;
  if (t == nullptr) {
    return;
  }
  if (c.seg_event != sim::kInvalidEventId) {
    sim_->Cancel(c.seg_event);
    c.seg_event = sim::kInvalidEventId;
    sim::Duration elapsed = sim_->Now() - c.seg_start;
    sim::Duration used = std::min(elapsed, t->remaining_);
    t->cpu_time_ += used;
    t->remaining_ -= used;
  }
  if (t->has_pending_ && t->pending_.type == Action::Type::kBusyPoll) {
    // Polls restart from scratch on resume; the behavior re-checks its ring.
    t->has_pending_ = false;
    t->action_begun_ = false;
    t->last_result_ = {Action::Type::kBusyPoll, false};
  }
}

void Kernel::ResumeSegment(CpuId id) {
  OsCpu& c = cpu(id);
  Task* t = c.current;
  assert(t != nullptr && CpuExecuting(c));
  StartTick(id);
  if (!t->has_pending_ || !t->action_begun_) {
    // Either a fresh boundary, or an action whose begin-side-effects never
    // ran before the freeze: ExecuteCurrent handles both.
    ExecuteCurrent(id);
    return;
  }
  switch (t->pending_.type) {
    case Action::Type::kCompute:
    case Action::Type::kKernelSection:
    case Action::Type::kLockRelease: {
      c.seg_start = sim_->Now();
      c.seg_event = sim_->Schedule(t->remaining_, [this, id] {
        cpu(id).seg_event = sim::kInvalidEventId;
        CompleteSegment(id, false);
      });
      return;
    }
    case Action::Type::kLockAcquire:
      if (!t->spinning_) {
        // Lock was granted while we were frozen; finish the acquire cost.
        c.seg_start = sim_->Now();
        c.seg_event = sim_->Schedule(t->remaining_, [this, id] {
          cpu(id).seg_event = sim::kInvalidEventId;
          CompleteSegment(id, false);
        });
      }
      // Else: still spinning; the grant path will complete us.
      return;
    default:
      // kBusyPoll is discarded at freeze; others never stay pending.
      ExecuteCurrent(id);
      return;
  }
}

bool Kernel::MaybePreemptAtBoundary(CpuId id) {
  OsCpu& c = cpu(id);
  Task* t = c.current;
  if (t == nullptr || t->non_preemptible()) {
    return false;
  }
  if (!t->affinity().Test(id)) {
    // Affinity changed while running here: migrate at this boundary.
    c.need_resched = false;
    RequeueCurrent(id);
    StartNext(id);
    return true;
  }
  bool should = false;
  if (HigherPriorityWaiting(c, t->priority_)) {
    should = true;
  } else if (c.need_resched && SameOrHigherWaiting(c, t->priority_)) {
    should = true;
  }
  if (!should) {
    c.need_resched = false;
    return false;
  }
  c.need_resched = false;
  RequeueCurrent(id);
  StartNext(id);
  return true;
}

void Kernel::ExecuteCurrent(CpuId id) {
  OsCpu& c = cpu(id);
  Task* t = c.current;
  assert(t != nullptr);
  if (!CpuExecuting(c)) {
    return;
  }
  bool fresh;
  if (!t->has_pending_) {
    // Action boundary: bottom halves and preemption run here.
    if (c.pending_softirqs != 0 && !t->non_preemptible()) {
      TryRunSoftirqs(id);  // Re-enters ExecuteCurrent when appropriate.
      return;
    }
    if (MaybePreemptAtBoundary(id)) {
      return;
    }
    Action a = t->behavior().Next(*this, *t, t->last_result_);
    t->pending_ = a;
    t->has_pending_ = true;
    t->action_begun_ = false;
    t->remaining_ = a.duration;
    // The behavior may have triggered a synchronous VM-exit of this very CPU
    // (e.g. a wake whose IPI the orchestrator intercepted because this is a
    // vCPU source). The pending action then waits for the next resume.
    if (!CpuExecuting(c) || c.current != t) {
      return;
    }
    // Unbounded busy polls must stay event-free; the switch cost is dropped
    // there (a poll restart after a switch is negligible anyway).
    if (a.type != Action::Type::kBusyPoll || a.duration > 0) {
      t->remaining_ += c.pending_switch_cost;
    }
    c.pending_switch_cost = 0;
  }
  fresh = !t->action_begun_;
  t->action_begun_ = true;
  const Action& a = t->pending_;
  auto schedule_end = [&](sim::Duration d) {
    c.seg_start = sim_->Now();
    bool timeout = a.type == Action::Type::kBusyPoll;
    c.seg_event = sim_->Schedule(d, [this, id, timeout] {
      cpu(id).seg_event = sim::kInvalidEventId;
      CompleteSegment(id, timeout);
    });
  };
  switch (a.type) {
    case Action::Type::kCompute:
      schedule_end(t->remaining_);
      return;
    case Action::Type::kKernelSection:
      if (fresh) {
        NonPreemptEnter(t);
      }
      schedule_end(t->remaining_);
      return;
    case Action::Type::kLockAcquire:
      if (fresh) {
        t->remaining_ += config_.lock_op_cost;
        NonPreemptEnter(t);
        BeginLockAcquire(id, t, a.lock);
      }
      return;
    case Action::Type::kLockRelease:
      if (fresh) {
        t->remaining_ += config_.lock_op_cost;
      }
      schedule_end(t->remaining_);
      return;
    case Action::Type::kSleep: {
      Task* sleeper = t;
      sleeper->has_pending_ = false;
      sleeper->action_begun_ = false;
      sleeper->last_result_ = {Action::Type::kSleep, false};
      sleeper->state_ = TaskState::kSleeping;
      Account(c);
      c.current = nullptr;
      if (tracer_ != nullptr) {
        tracer_->End(sim_->Now(), id);
      }
      sim_->Schedule(a.duration, [this, sleeper] {
        if (sleeper->state_ == TaskState::kSleeping) {
          Wake(sleeper);
        }
      });
      StartNext(id);
      return;
    }
    case Action::Type::kBlock:
      t->has_pending_ = false;
      t->action_begun_ = false;
      t->last_result_ = {Action::Type::kBlock, false};
      t->state_ = TaskState::kBlocked;
      Account(c);
      c.current = nullptr;
      if (tracer_ != nullptr) {
        tracer_->End(sim_->Now(), id);
      }
      StartNext(id);
      return;
    case Action::Type::kYield:
      t->has_pending_ = false;
      t->action_begun_ = false;
      t->last_result_ = {Action::Type::kYield, false};
      RequeueCurrent(id);
      StartNext(id);
      return;
    case Action::Type::kBusyPoll:
      if (t->remaining_ > 0) {
        schedule_end(t->remaining_);
      }
      // Unbounded polls park here until KickTask or a freeze.
      return;
    case Action::Type::kExit:
      TaskExited(id);
      return;
    case Action::Type::kNone:
      assert(false && "behavior returned kNone");
      return;
  }
}

void Kernel::CompleteSegment(CpuId id, bool busy_poll_timeout) {
  OsCpu& c = cpu(id);
  Task* t = c.current;
  assert(t != nullptr && t->has_pending_);
  t->cpu_time_ += t->remaining_;
  t->remaining_ = 0;
  Action a = t->pending_;
  t->has_pending_ = false;
  t->action_begun_ = false;
  t->last_result_ = {a.type, busy_poll_timeout};
  switch (a.type) {
    case Action::Type::kKernelSection:
      NonPreemptExit(t);
      break;
    case Action::Type::kLockRelease:
      BeginLockRelease(id, t, a.lock);
      break;
    default:
      break;
  }
  ExecuteCurrent(id);
}

void Kernel::TaskExited(CpuId id) {
  OsCpu& c = cpu(id);
  Task* t = c.current;
  assert(t != nullptr);
  t->state_ = TaskState::kExited;
  t->exited_at_ = sim_->Now();
  t->has_pending_ = false;
  t->action_begun_ = false;
  assert(t->non_preempt_depth_ == 0 && "task exited inside a kernel section");
  Account(c);
  c.current = nullptr;
  if (tracer_ != nullptr) {
    tracer_->End(sim_->Now(), id);
  }
  if (task_exit_handler_) {
    task_exit_handler_(*t);
  }
  StartNext(id);
}

// ---- Ticks -------------------------------------------------------------------

void Kernel::StartTick(CpuId id) {
  OsCpu& c = cpu(id);
  if (c.tick_event != sim::kInvalidEventId) {
    return;
  }
  // One repeating event per CPU: firing re-keys the slot instead of
  // rebuilding the closure every tick_period.
  c.tick_event = sim_->ScheduleRepeating(config_.tick_period, [this, id] { Tick(id); });
}

void Kernel::StopTick(CpuId id) {
  OsCpu& c = cpu(id);
  if (c.tick_event != sim::kInvalidEventId) {
    sim_->Cancel(c.tick_event);
    c.tick_event = sim::kInvalidEventId;
  }
}

void Kernel::Tick(CpuId id) {
  OsCpu& c = cpu(id);
  if (!CpuExecuting(c)) {
    StopTick(id);  // Restarted on resume.
    return;
  }
  Account(c);
  Task* t = c.current;
  if (t == nullptr) {
    StopTick(id);  // Idle CPUs do not tick.
    return;
  }
  // The repeating tick_event has already re-keyed itself to now + tick_period.
  t->ran_in_slice_ += config_.tick_period;
  if (t->ran_in_slice_ >= config_.sched_slice && SameOrHigherWaiting(c, t->priority_)) {
    if (!t->non_preemptible()) {
      RequeueCurrent(id);
      StartNext(id);
    } else {
      c.need_resched = true;
    }
  }
}

// ---- Locks -------------------------------------------------------------------

void Kernel::BeginLockAcquire(CpuId id, Task* t, KernelSpinlock* lock) {
  assert(lock != nullptr);
  OsCpu& c = cpu(id);
  if (lock->holder_ == nullptr) {
    lock->holder_ = t;
    lock->held_since_ = sim_->Now();
    lock->acquisitions_.Inc();
    if (tracer_ != nullptr) {
      tracer_->Instant(sim_->Now(), id, obs::TraceCategory::kLock, "lock_acquire", t->id());
    }
    // The acquire cost runs as a timed segment.
    c.seg_start = sim_->Now();
    c.seg_event = sim_->Schedule(t->remaining_, [this, id] {
      cpu(id).seg_event = sim::kInvalidEventId;
      CompleteSegment(id, false);
    });
    return;
  }
  lock->contentions_.Inc();
  if (tracer_ != nullptr) {
    tracer_->Instant(sim_->Now(), id, obs::TraceCategory::kLock, "lock_contend", t->id());
  }
  t->spinning_ = true;
  t->waiting_lock_ = lock;
  t->spin_since_ = sim_->Now();
  lock->waiters_.push_back(t);
  // No completion event: the task spins (burning CPU, non-preemptible) until
  // the release path grants it the lock.
}

void Kernel::FinishLockAcquire(Task* t, KernelSpinlock* lock) {
  t->spinning_ = false;
  t->waiting_lock_ = nullptr;
  t->lock_spin_time_ += sim_->Now() - t->spin_since_;
  lock->holder_ = t;
  lock->held_since_ = sim_->Now();
  lock->acquisitions_.Inc();
  if (tracer_ != nullptr) {
    tracer_->Instant(sim_->Now(), t->cpu_, obs::TraceCategory::kLock, "lock_acquire", t->id());
  }
  // Finish the acquire action; if the waiter's CPU is currently executing it,
  // schedule the residual acquire cost, otherwise leave it pending for
  // ResumeSegment.
  OsCpu& c = cpu(t->cpu_);
  t->remaining_ = config_.lock_op_cost;
  if (c.current == t && CpuExecuting(c)) {
    c.seg_start = sim_->Now();
    CpuId id = t->cpu_;
    c.seg_event = sim_->Schedule(t->remaining_, [this, id] {
      cpu(id).seg_event = sim::kInvalidEventId;
      CompleteSegment(id, false);
    });
  }
}

void Kernel::BeginLockRelease(CpuId id, Task* t, KernelSpinlock* lock) {
  assert(lock != nullptr && lock->holder_ == t);
  lock->hold_time_us_.Add(sim::ToMicros(sim_->Now() - lock->held_since_));
  if (tracer_ != nullptr) {
    tracer_->Instant(sim_->Now(), id, obs::TraceCategory::kLock, "lock_release", t->id());
  }
  lock->holder_ = nullptr;
  NonPreemptExit(t);
  if (!lock->waiters_.empty()) {
    Task* next = lock->waiters_.front();
    lock->waiters_.pop_front();
    FinishLockAcquire(next, lock);
  }
}

void Kernel::NonPreemptEnter(Task* t) {
  if (t->non_preempt_depth_++ == 0) {
    t->non_preempt_since_ = sim_->Now();
  }
}

void Kernel::NonPreemptExit(Task* t) {
  assert(t->non_preempt_depth_ > 0);
  if (--t->non_preempt_depth_ == 0 && nonpreempt_tracer_) {
    nonpreempt_tracer_(*t, sim_->Now() - t->non_preempt_since_);
  }
}

// ---- Guest mode ---------------------------------------------------------------

void Kernel::EnterGuest(CpuId pcpu, CpuId vcpu) {
  OsCpu& p = cpu(pcpu);
  OsCpu& v = cpu(vcpu);
  assert(p.kind == CpuKind::kPhysical && p.online && p.backed);
  assert(p.mode == CpuMode::kHost && p.guest == kInvalidCpu);
  assert(v.kind == CpuKind::kVirtual && v.online && !v.backed);
  (void)v;
  Account(p);
  FreezeSegment(p);
  StopTick(pcpu);
  p.mode = CpuMode::kTransition;
  guest_entries_.Inc();
  if (tracer_ != nullptr) {
    tracer_->Instant(sim_->Now(), pcpu, obs::TraceCategory::kVirt, "vm_entry",
                     static_cast<uint64_t>(vcpu));
    // The guest span on the pCPU track covers entry transition + guest
    // execution + exit transition; it closes in ExitGuest's completion.
    tracer_->Begin(sim_->Now(), pcpu, obs::TraceCategory::kVirt, "guest",
                   static_cast<uint64_t>(vcpu));
  }
  sim_->Schedule(config_.guest.entry_cost, [this, pcpu, vcpu] {
    OsCpu& pc = cpu(pcpu);
    OsCpu& vc = cpu(vcpu);
    Account(pc);
    pc.mode = CpuMode::kGuest;
    pc.guest = vcpu;
    vc.backed = true;
    vc.backer = pcpu;
    vc.last_account = sim_->Now();
    // Posted interrupts pended while the vCPU slept take effect now.
    vc.pending_ipis.clear();
    if (tracer_ != nullptr && vc.current != nullptr) {
      // Re-open the frozen task's span on the vCPU track for this backed
      // episode (ExitGuest closed it when the episode ended).
      tracer_->Begin(sim_->Now(), vcpu, obs::TraceCategory::kSched, vc.current->name().c_str(),
                     vc.current->id());
    }
    if (!pc.pending_irqs.empty()) {
      // An interrupt raced the entry: exit immediately.
      hw::IrqVector vec = pc.pending_irqs.front();
      ExitGuest(pcpu, GuestExitReason::kExternalInterrupt, vec);
      return;
    }
    if (vc.current != nullptr) {
      ResumeSegment(vcpu);
    } else {
      Dispatch(vcpu);
    }
    // Deferred bottom halves on the vCPU run once it executes a boundary.
  });
}

void Kernel::ExitGuest(CpuId pcpu, GuestExitReason reason, hw::IrqVector vector) {
  OsCpu& p = cpu(pcpu);
  assert(p.mode == CpuMode::kGuest && p.guest != kInvalidCpu);
  CpuId vcpu = p.guest;
  OsCpu& v = cpu(vcpu);
  Account(p);
  Account(v);
  if (tracer_ != nullptr) {
    if (v.current != nullptr) {
      tracer_->End(sim_->Now(), vcpu);  // Close this backed episode's span.
    }
    tracer_->Instant(sim_->Now(), pcpu, obs::TraceCategory::kVirt, "vm_exit",
                     static_cast<uint64_t>(reason), static_cast<uint64_t>(vector));
  }
  FreezeSegment(v);
  (void)v;
  StopTick(vcpu);
  v.backed = false;
  v.backer = kInvalidCpu;
  p.guest = kInvalidCpu;
  p.mode = CpuMode::kTransition;
  guest_exits_.Inc();
  GuestExitInfo info{reason, vector};
  sim_->Schedule(config_.guest.exit_cost, [this, pcpu, vcpu, info] {
    OsCpu& pc = cpu(pcpu);
    Account(pc);
    pc.mode = CpuMode::kHost;
    if (tracer_ != nullptr) {
      tracer_->End(sim_->Now(), pcpu);  // Close the guest span.
    }
    // Pending interrupts become deferred rescheduling intents; the resume
    // path honours them.
    for (hw::IrqVector vec : pc.pending_irqs) {
      if (vec == hw::IrqVector::kResched) {
        pc.need_resched = true;
      }
    }
    pc.pending_irqs.clear();
    if (guest_exit_handler_) {
      guest_exit_handler_(pcpu, vcpu, info);
    } else {
      ResumeHost(pcpu);
    }
  });
}

void Kernel::ResumeHost(CpuId pcpu) {
  OsCpu& p = cpu(pcpu);
  assert(p.kind == CpuKind::kPhysical && p.mode == CpuMode::kHost &&
         p.guest == kInvalidCpu);
  for (IpiType type : p.pending_ipis) {
    if (type == IpiType::kResched) {
      p.need_resched = true;
    }
  }
  p.pending_ipis.clear();
  if (p.current == nullptr) {
    Dispatch(pcpu);
    if (p.pending_softirqs != 0) {
      TryRunSoftirqs(pcpu);
    }
    return;
  }
  Task* t = p.current;
  if (!t->non_preemptible() &&
      (HigherPriorityWaiting(p, t->priority_) ||
       (p.need_resched && SameOrHigherWaiting(p, t->priority_)))) {
    p.need_resched = false;
    RequeueCurrent(pcpu);
    StartNext(pcpu);
    return;
  }
  ResumeSegment(pcpu);
  if (p.pending_softirqs != 0) {
    TryRunSoftirqs(pcpu);
  }
}

// ---- Accounting -----------------------------------------------------------------

void Kernel::Account(OsCpu& c) {
  sim::SimTime now = sim_->Now();
  if (!c.online || (c.kind == CpuKind::kVirtual && !c.backed)) {
    c.last_account = now;
    return;
  }
  sim::Duration delta = now - c.last_account;
  c.last_account = now;
  if (delta == 0) {
    return;
  }
  if (c.mode == CpuMode::kGuest) {
    c.acct.guest_lent += delta;
  } else if (c.mode == CpuMode::kTransition || c.current != nullptr) {
    c.acct.busy += delta;
  } else {
    c.acct.idle += delta;
  }
}

}  // namespace taichi::os
