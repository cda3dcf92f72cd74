// The SmartNIC operating system kernel.
//
// Models the parts of Linux that Tai Chi interacts with: per-CPU run queues
// with round-robin scheduling and timer ticks, non-preemptible kernel
// routines and spinlocks, softirqs, IPI dispatch (with a pluggable router —
// the hook Tai Chi's unified IPI orchestrator installs), CPU hotplug, and a
// guest execution mode in which a physical CPU lends itself to a virtual CPU
// (the mechanics underneath hybrid virtualization, §4).
//
// The kernel treats virtual CPUs exactly like physical ones — run queues,
// ticks, affinity — except that they only make progress while "backed" by a
// physical CPU. That asymmetry is the paper's "small yet delicate
// modification in the OS".
#ifndef SRC_OS_KERNEL_H_
#define SRC_OS_KERNEL_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/hw/machine.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/os/spinlock.h"
#include "src/os/task.h"
#include "src/os/types.h"
#include "src/sim/simulation.h"
#include "src/sim/stats.h"

namespace taichi::os {

// Virtualization transition costs. exit_cost + restore path is the "2 us
// scheduling latency" of §3.4 paid whenever a vCPU relinquishes a CPU.
struct GuestCosts {
  sim::Duration entry_cost = sim::MicrosF(1.5);  // pCPU -> vCPU (VM-entry path).
  sim::Duration exit_cost = sim::MicrosF(2.0);   // vCPU -> pCPU (VM-exit + restore).
};

struct KernelConfig {
  sim::Duration tick_period = sim::Millis(1);
  sim::Duration sched_slice = sim::Millis(3);
  sim::Duration context_switch_cost = sim::MicrosF(1.2);
  sim::Duration lock_op_cost = sim::Nanos(120);
  sim::Duration softirq_latency = sim::Nanos(300);
  sim::Duration boot_cost = sim::Micros(50);
  GuestCosts guest;
};

// Per-CPU time accounting.
struct CpuAccounting {
  sim::Duration busy = 0;        // Running a task (includes switch overheads).
  sim::Duration idle = 0;        // Nothing runnable.
  sim::Duration guest_lent = 0;  // Physical CPU lent to a vCPU.
};

struct GuestExitInfo {
  GuestExitReason reason = GuestExitReason::kForced;
  hw::IrqVector vector = hw::IrqVector::kTimer;  // Valid for kExternalInterrupt.
};

// Interposition point for all IPIs (the kernel's x2apic_send_IPI). Tai Chi
// replaces the default router with its unified IPI orchestrator.
class IpiRouter {
 public:
  virtual ~IpiRouter() = default;
  virtual void Route(CpuId from, CpuId to, IpiType type) = 0;
};

class Kernel {
 public:
  Kernel(sim::Simulation* sim, hw::Machine* machine, KernelConfig config = {});
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  sim::Simulation& sim() { return *sim_; }
  hw::Machine& machine() { return *machine_; }
  const KernelConfig& config() const { return config_; }

  // ---- CPU management -------------------------------------------------

  // Registers an additional CPU (hotplug); it starts offline and unbacked.
  // Virtual CPUs get synthetic APIC ids above the physical range.
  CpuId RegisterCpu(CpuKind kind, hw::ApicId apic_id);

  // Requests bring-up of an offline CPU by sending a boot IPI through the
  // router; the CPU comes online boot_cost later (or when the router's owner
  // calls MarkCpuOnline).
  void OnlineCpu(CpuId cpu);

  // Completes bring-up. Exposed for IPI routers that intercept boot IPIs.
  void MarkCpuOnline(CpuId cpu);

  int num_cpus() const { return static_cast<int>(cpus_.size()); }
  CpuKind cpu_kind(CpuId cpu) const { return cpus_[cpu]->kind; }
  bool cpu_online(CpuId cpu) const { return cpus_[cpu]->online; }
  bool cpu_backed(CpuId cpu) const { return cpus_[cpu]->backed; }
  CpuId guest_of(CpuId pcpu) const { return cpus_[pcpu]->guest; }
  CpuId backer_of(CpuId vcpu) const { return cpus_[vcpu]->backer; }
  Task* current_task(CpuId cpu) const { return cpus_[cpu]->current; }
  size_t runnable_count(CpuId cpu) const;
  bool CpuIdle(CpuId cpu) const;
  // True if the CPU's current task is inside a non-preemptible routine or
  // holds a kernel lock — the lock-context test for safe CP-to-DP scheduling.
  bool CpuInNonPreemptibleContext(CpuId cpu) const;
  // True when the CPU is executing natively (not lent to a guest and not in
  // a VM-entry/exit transition).
  bool CpuInHostMode(CpuId cpu) const { return cpus_[cpu]->mode == CpuMode::kHost; }
  // Runnable work exists on this CPU (queued or current).
  bool CpuHasWork(CpuId cpu) const;

  CpuAccounting GetAccounting(CpuId cpu);

  // ---- Tasks ----------------------------------------------------------

  Task* Spawn(std::string name, std::unique_ptr<Behavior> behavior, CpuSet affinity,
              Priority priority = Priority::kNormal);
  void Wake(Task* task, CpuId from = kInvalidCpu);
  // Live affinity change (sched_setaffinity): a queued task migrates to an
  // allowed CPU immediately; a running task on a now-forbidden CPU migrates
  // at its next preemptible boundary. Testbed moves CP tasks onto and off
  // the vCPUs with it (§5's affinity deployment).
  void SetTaskAffinity(Task* task, CpuSet affinity);
  // Ends a kBusyPoll early (work arrived) or wakes a blocked task. The
  // standard kick data-plane rings use.
  void KickTask(Task* task);
  const std::vector<std::unique_ptr<Task>>& tasks() const { return tasks_; }

  // Task::cpu_time() is only settled at segment boundaries; this adds the
  // currently in-flight portion, giving an instantaneously correct value.
  sim::Duration TaskCpuTime(const Task& task) const;

  // ---- IPIs -----------------------------------------------------------

  // All IPI emission funnels through here and then the installed router.
  void SendIpi(CpuId from, CpuId to, IpiType type);
  // Installs a custom router (nullptr restores the default). Not owned.
  void set_ipi_router(IpiRouter* router) { router_ = router; }
  // The default physical delivery path: an MSR write to the LAPIC.
  void RouteDefault(CpuId from, CpuId to, IpiType type);
  // Handles an IPI as if it arrived at `cpu` (used by routers that bypass
  // the hardware APIC, e.g. posted-interrupt injection into a vCPU).
  void HandleIpiAt(CpuId cpu, IpiType type);

  // ---- Softirqs ---------------------------------------------------------

  static constexpr int kNumSoftirqs = 8;
  void RegisterSoftirq(int nr, std::function<void(CpuId)> handler);
  void RaiseSoftirq(CpuId cpu, int nr);

  // ---- Guest mode (hybrid virtualization mechanics) ---------------------

  // Lends physical CPU `pcpu` to virtual CPU `vcpu`. The pCPU's current task
  // is frozen in place; after entry_cost the vCPU starts executing. Must be
  // called with pcpu online, in host mode, and vcpu online and unbacked.
  void EnterGuest(CpuId pcpu, CpuId vcpu);

  // Forces pcpu out of guest mode. After exit_cost the guest-exit handler
  // runs and must either re-enter a guest or call ResumeHost().
  void ExitGuest(CpuId pcpu, GuestExitReason reason,
                 hw::IrqVector vector = hw::IrqVector::kTimer);

  // Resumes native execution on a pCPU after a guest exit.
  void ResumeHost(CpuId pcpu);

  using GuestExitHandler = std::function<void(CpuId pcpu, CpuId vcpu, const GuestExitInfo&)>;
  using GuestHaltHandler = std::function<void(CpuId vcpu)>;
  void set_guest_exit_handler(GuestExitHandler h) { guest_exit_handler_ = std::move(h); }
  // Invoked when a backed vCPU runs out of work (its idle loop would HLT).
  void set_guest_halt_handler(GuestHaltHandler h) { guest_halt_handler_ = std::move(h); }
  // Invoked when a physical CPU finds nothing to run (after attempting to
  // steal); lets a vCPU scheduler donate the idle CPU to a vCPU.
  using IdleHandler = std::function<void(CpuId pcpu)>;
  void set_idle_handler(IdleHandler h) { idle_handler_ = std::move(h); }

  // ---- Instrumentation ---------------------------------------------------

  // Called with (task, wall duration) when a task leaves a non-preemptible
  // episode — data for the Fig. 5 distribution.
  using NonPreemptTracer = std::function<void(const Task&, sim::Duration)>;
  void set_nonpreempt_tracer(NonPreemptTracer t) { nonpreempt_tracer_ = std::move(t); }
  using TaskExitHandler = std::function<void(Task&)>;
  void set_task_exit_handler(TaskExitHandler h) { task_exit_handler_ = std::move(h); }

  uint64_t context_switches() const { return context_switches_.value(); }
  uint64_t guest_entries() const { return guest_entries_.value(); }
  uint64_t guest_exits() const { return guest_exits_.value(); }
  uint64_t ipis_sent() const { return ipis_sent_.value(); }
  uint64_t softirqs_run() const { return softirqs_run_.value(); }
  uint64_t steals() const { return steals_.value(); }

  // Attaches a trace recorder (nullptr detaches). Every known CPU gets a
  // default track name ("cpuN"/"vcpuN"); callers can rename tracks after.
  void set_tracer(obs::TraceRecorder* tracer);
  obs::TraceRecorder* tracer() const { return tracer_; }

  // Registers the kernel's counters as "<prefix>.*".
  void RegisterMetrics(obs::MetricsRegistry& registry, const std::string& prefix = "kernel") const;

 private:
  enum class CpuMode : uint8_t { kHost, kGuest, kTransition };

  struct OsCpu {
    CpuId id = kInvalidCpu;
    hw::ApicId apic_id = hw::kInvalidApicId;
    CpuKind kind = CpuKind::kPhysical;
    bool online = false;
    bool backed = false;

    Task* current = nullptr;
    std::array<std::deque<Task*>, kNumPriorities> rq;

    // Execution continuation state. seg_event is whatever single event drives
    // this CPU forward (segment completion, lock grant, switch delay).
    sim::EventId seg_event = sim::kInvalidEventId;
    sim::SimTime seg_start = 0;
    bool need_resched = false;
    sim::Duration pending_switch_cost = 0;

    // Guest-lending state.
    CpuMode mode = CpuMode::kHost;
    CpuId guest = kInvalidCpu;   // pCPU only: vCPU currently hosted.
    CpuId backer = kInvalidCpu;  // vCPU only: pCPU hosting us.
    std::vector<hw::IrqVector> pending_irqs;
    std::vector<IpiType> pending_ipis;  // vCPU: posted while unbacked.

    sim::EventId tick_event = sim::kInvalidEventId;
    uint32_t pending_softirqs = 0;

    CpuAccounting acct;
    sim::SimTime last_account = 0;
  };

  OsCpu& cpu(CpuId id) { return *cpus_[id]; }
  const OsCpu& cpu(CpuId id) const { return *cpus_[id]; }

  // True when code can execute natively on this CPU right now.
  bool CpuExecuting(const OsCpu& c) const {
    return c.online && c.backed && c.mode == CpuMode::kHost;
  }

  // Scheduling core.
  void Dispatch(CpuId cpu);
  void StartNext(CpuId cpu);
  void ExecuteCurrent(CpuId cpu);
  void CompleteSegment(CpuId cpu, bool busy_poll_timeout);
  void RequeueCurrent(CpuId cpu);
  void FreezeSegment(OsCpu& c);
  void ResumeSegment(CpuId cpu);
  bool MaybePreemptAtBoundary(CpuId cpu);
  bool HigherPriorityWaiting(const OsCpu& c, Priority prio) const;
  bool SameOrHigherWaiting(const OsCpu& c, Priority prio) const;
  Task* PickNext(OsCpu& c);
  bool TrySteal(CpuId cpu);
  void EnqueueTask(Task* task, CpuId cpu);
  CpuId ChooseCpuFor(const Task& task) const;
  void EnqueueAndKick(Task* task, CpuId from);
  void TaskExited(CpuId cpu);

  // Ticks.
  void StartTick(CpuId cpu);
  void StopTick(CpuId cpu);
  void Tick(CpuId cpu);

  // Actions.
  void BeginLockAcquire(CpuId cpu, Task* t, KernelSpinlock* lock);
  void FinishLockAcquire(Task* t, KernelSpinlock* lock);
  void BeginLockRelease(CpuId cpu, Task* t, KernelSpinlock* lock);
  void NonPreemptEnter(Task* t);
  void NonPreemptExit(Task* t);

  // Interrupts & softirqs.
  void OnHwInterrupt(CpuId cpu, hw::IrqVector vector, hw::ApicId from);
  void HandleIrqHost(CpuId cpu, hw::IrqVector vector);
  void TryRunSoftirqs(CpuId cpu);

  // Accounting.
  void Account(OsCpu& c);

  sim::Simulation* sim_;
  hw::Machine* machine_;
  KernelConfig config_;
  std::vector<std::unique_ptr<OsCpu>> cpus_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::array<std::function<void(CpuId)>, kNumSoftirqs> softirq_handlers_;

  IpiRouter* router_ = nullptr;
  GuestExitHandler guest_exit_handler_;
  GuestHaltHandler guest_halt_handler_;
  IdleHandler idle_handler_;
  NonPreemptTracer nonpreempt_tracer_;
  TaskExitHandler task_exit_handler_;

  obs::TraceRecorder* tracer_ = nullptr;

  TaskId next_task_id_ = 1;
  sim::Counter context_switches_;
  sim::Counter guest_entries_;
  sim::Counter guest_exits_;
  sim::Counter ipis_sent_;
  sim::Counter softirqs_run_;
  sim::Counter steals_;
};

}  // namespace taichi::os

#endif  // SRC_OS_KERNEL_H_
