// Kernel spinlock model. Acquiring (or spinning on) a kernel spinlock
// disables preemption, which is exactly the non-preemptible-routine problem
// of §3.2: a CP task holding one cannot be descheduled by the OS.
#ifndef SRC_OS_SPINLOCK_H_
#define SRC_OS_SPINLOCK_H_

#include <deque>
#include <string>

#include "src/obs/metrics.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace taichi::os {

class Task;

class KernelSpinlock {
 public:
  explicit KernelSpinlock(std::string name = "lock") : name_(std::move(name)) {}
  KernelSpinlock(const KernelSpinlock&) = delete;
  KernelSpinlock& operator=(const KernelSpinlock&) = delete;

  const std::string& name() const { return name_; }
  Task* holder() const { return holder_; }
  bool held() const { return holder_ != nullptr; }

  uint64_t acquisitions() const { return acquisitions_.value(); }
  uint64_t contentions() const { return contentions_.value(); }
  const sim::Summary& hold_time_us() const { return hold_time_us_; }

  // Registers this lock's metrics as "lock.<name>.*".
  void RegisterMetrics(obs::MetricsRegistry& registry) const {
    const std::string prefix = "lock." + name_;
    registry.AddCounter(prefix + ".acquisitions", &acquisitions_);
    registry.AddCounter(prefix + ".contentions", &contentions_);
    registry.AddSummary(prefix + ".hold_time_us", &hold_time_us_);
  }

 private:
  friend class Kernel;

  std::string name_;
  Task* holder_ = nullptr;
  std::deque<Task*> waiters_;  // FIFO hand-off among spinning tasks.
  sim::SimTime held_since_ = 0;
  sim::Counter acquisitions_;
  sim::Counter contentions_;
  sim::Summary hold_time_us_;
};

}  // namespace taichi::os

#endif  // SRC_OS_SPINLOCK_H_
