// The simulation executor: a clock plus the event loop driving all models.
#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <atomic>
#include <cstdint>
#include <limits>

#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace taichi::sim {

// Owns simulated time. Every model object holds a Simulation* and expresses
// all its timing through Schedule()/At(). Single-threaded and deterministic:
// two runs with the same seed produce identical event orders.
class Simulation {
 public:
  explicit Simulation(uint64_t seed = 1) : rng_(seed) {}
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime Now() const { return now_; }
  Rng& rng() { return rng_; }

  // Schedules `fn` to run `delay` nanoseconds from now.
  EventId Schedule(Duration delay, InlineCallback fn) {
    return queue_.Schedule(now_ + delay, std::move(fn));
  }

  // Schedules `fn` at an absolute time, which must not be in the past:
  // that is a model bug (an event computed its deadline from stale state),
  // reported via TAICHI_ERROR + assert and clamped to now.
  EventId At(SimTime when, InlineCallback fn);

  // Schedules `fn` at now + first_delay and then every `period` after, on a
  // single slot with a single callback: the standing-timer pattern (kernel
  // tick, poll loops, arrival processes) without rebuilding a closure every
  // cycle. The returned id stays valid across firings; Cancel() ends the
  // cycle and Reschedule() overrides the next firing (both safe from inside
  // the callback itself).
  EventId ScheduleRepeating(Duration first_delay, Duration period, InlineCallback fn) {
    return queue_.ScheduleRepeating(now_ + first_delay, period, std::move(fn));
  }
  EventId ScheduleRepeating(Duration period, InlineCallback fn) {
    return ScheduleRepeating(period, period, std::move(fn));
  }

  // Re-keys a pending event to fire `delay` from now, in place: no slot
  // churn, no callback reconstruction. Order-equivalent to Cancel + Schedule
  // of the same callback (the event gets a fresh sequence number). Returns
  // false if the event already fired or was cancelled.
  bool Reschedule(EventId id, Duration delay) {
    return queue_.Reschedule(id, now_ + delay);
  }

  bool Cancel(EventId id) { return queue_.Cancel(id); }
  bool IsPending(EventId id) const { return queue_.IsPending(id); }

  // Runs events until the queue is empty or Stop() is called.
  void Run() { RunUntil(std::numeric_limits<SimTime>::max()); }

  // Runs events with time <= deadline; the clock lands exactly on `deadline`
  // if the queue drained or the next event lies beyond it.
  void RunUntil(SimTime deadline);

  // Convenience for RunUntil(Now() + delta).
  void RunFor(Duration delta) { RunUntil(now_ + delta); }

  // Makes Run()/RunUntil() return after the current event completes.
  void Stop() { stopped_ = true; }

  // True when no pending event fires at or before `t`, i.e. RunUntil(t)
  // would only move the clock.
  bool IdleUntil(SimTime t) const {
    return queue_.empty() || queue_.NextTime() > t;
  }

  // Releases event-pool memory after a burst; see EventQueue::ShrinkToFit.
  void ShrinkEventPool() { queue_.ShrinkToFit(); }

  uint64_t events_executed() const { return events_executed_; }
  size_t pending_events() const { return queue_.size(); }
  size_t event_pool_slots() const { return queue_.slot_count(); }

 private:
  EventQueue queue_;
  Rng rng_;
  SimTime now_ = 0;
  bool stopped_ = false;
  uint64_t events_executed_ = 0;
  // Trips an assert if two threads ever step this Simulation concurrently.
  // The fleet layer steps one node per worker thread; everything a node's
  // events touch must hang off this Simulation, so concurrent entry here is
  // the signature of cross-node shared state. One exchange per RunUntil call
  // (not per event) — negligible.
  std::atomic<bool> stepping_{false};
};

}  // namespace taichi::sim

#endif  // SRC_SIM_SIMULATION_H_
