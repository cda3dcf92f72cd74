// Tasks and their programs.
//
// A Task is a schedulable thread. Its code is a Behavior: a state machine the
// kernel drives by repeatedly asking for the next Action (compute for X ns,
// enter a non-preemptible kernel routine, take a spinlock, sleep, ...). This
// models real workloads at the granularity that matters for scheduling while
// staying fully deterministic.
#ifndef SRC_OS_TASK_H_
#define SRC_OS_TASK_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/os/types.h"
#include "src/sim/time.h"

namespace taichi::os {

class Kernel;
class KernelSpinlock;
class Task;

// One scheduling-relevant step of a task's program.
struct Action {
  enum class Type : uint8_t {
    kNone,           // Sentinel: "no previous action" on the first Next() call.
    kCompute,        // Preemptible user-space computation.
    kKernelSection,  // Non-preemptible kernel routine of a fixed duration.
    kLockAcquire,    // Acquire a kernel spinlock (spins non-preemptibly if held).
    kLockRelease,    // Release a held kernel spinlock.
    kSleep,          // Block for a fixed duration.
    kBlock,          // Block until Kernel::Wake().
    kYield,          // Voluntarily go to the back of the run queue.
    kBusyPoll,       // Burn CPU polling; ends early via Kernel::KickTask()
                     // or after `duration` if duration > 0 (0 = unbounded).
    kExit,           // Terminate the task.
  };

  Type type = Type::kNone;
  sim::Duration duration = 0;
  KernelSpinlock* lock = nullptr;

  static Action Compute(sim::Duration d) { return {Type::kCompute, d, nullptr}; }
  static Action KernelSection(sim::Duration d) { return {Type::kKernelSection, d, nullptr}; }
  static Action LockAcquire(KernelSpinlock* l) { return {Type::kLockAcquire, 0, l}; }
  static Action LockRelease(KernelSpinlock* l) { return {Type::kLockRelease, 0, l}; }
  static Action Sleep(sim::Duration d) { return {Type::kSleep, d, nullptr}; }
  static Action Block() { return {Type::kBlock, 0, nullptr}; }
  static Action Yield() { return {Type::kYield, 0, nullptr}; }
  static Action BusyPoll(sim::Duration max = 0) { return {Type::kBusyPoll, max, nullptr}; }
  static Action Exit() { return {Type::kExit, 0, nullptr}; }
};

// What the previous action was and how it ended; handed to Behavior::Next.
struct ActionResult {
  Action::Type type = Action::Type::kNone;
  // For kBusyPoll: true if the poll ran to its duration bound, false if it
  // was kicked because work arrived.
  bool busy_poll_timeout = false;
};

// A task's program. Next() is called when the task starts and after each
// action completes; it must eventually return kExit, kSleep, kBlock, kYield
// or kBusyPoll for long-lived services so other tasks can run.
class Behavior {
 public:
  virtual ~Behavior() = default;
  virtual Action Next(Kernel& kernel, Task& task, const ActionResult& last) = 0;
  // Invoked when the task starts running on a CPU after not running (fresh
  // dispatch or migration), letting services re-home per-CPU state.
  virtual void OnScheduledIn(Kernel& /*kernel*/, Task& /*task*/) {}
};

enum class TaskState : uint8_t {
  kRunnable,  // In a run queue.
  kRunning,   // Current on some CPU (possibly an unbacked vCPU).
  kSleeping,  // Timed sleep.
  kBlocked,   // Waiting for Kernel::Wake.
  kExited,
};

// Scheduler-visible task control block.
class Task {
 public:
  Task(TaskId id, std::string name, Priority priority, CpuSet affinity,
       std::unique_ptr<Behavior> behavior)
      : id_(id),
        name_(std::move(name)),
        priority_(priority),
        affinity_(affinity),
        behavior_(std::move(behavior)) {}

  TaskId id() const { return id_; }
  const std::string& name() const { return name_; }
  Priority priority() const { return priority_; }
  const CpuSet& affinity() const { return affinity_; }
  Behavior& behavior() { return *behavior_; }

  TaskState state() const { return state_; }
  CpuId cpu() const { return cpu_; }

  // True while the task must not be task-preempted: inside a kernel section,
  // holding or spinning on a kernel spinlock.
  bool non_preemptible() const { return non_preempt_depth_ > 0; }
  bool spinning() const { return spinning_; }

  // Statistics.
  sim::SimTime spawned_at() const { return spawned_at_; }
  sim::SimTime exited_at() const { return exited_at_; }
  sim::Duration cpu_time() const { return cpu_time_; }
  sim::Duration lock_spin_time() const { return lock_spin_time_; }

 private:
  friend class Kernel;
  friend class KernelSpinlock;

  TaskId id_;
  std::string name_;
  Priority priority_;
  CpuSet affinity_;
  std::unique_ptr<Behavior> behavior_;

  TaskState state_ = TaskState::kRunnable;
  CpuId cpu_ = kInvalidCpu;

  // Pending action execution state (supports freeze/resume).
  Action pending_{};
  bool has_pending_ = false;
  // True once the action's begin-side-effects (lock reservation, preemption
  // disabling) have run; guards against repeating them on resume.
  bool action_begun_ = false;
  sim::Duration remaining_ = 0;
  ActionResult last_result_{};

  // Non-preemptibility bookkeeping.
  int non_preempt_depth_ = 0;
  bool spinning_ = false;
  KernelSpinlock* waiting_lock_ = nullptr;
  sim::SimTime non_preempt_since_ = 0;

  // Accounting.
  sim::SimTime spawned_at_ = 0;
  sim::SimTime exited_at_ = 0;
  sim::Duration cpu_time_ = 0;
  sim::Duration lock_spin_time_ = 0;
  sim::SimTime spin_since_ = 0;
  sim::Duration ran_in_slice_ = 0;
};

}  // namespace taichi::os

#endif  // SRC_OS_TASK_H_
