#include "src/sim/simulation.h"

#include <cassert>
#include <cinttypes>

#include "src/sim/logging.h"

namespace taichi::sim {

EventId Simulation::At(SimTime when, InlineCallback fn) {
  if (when < now_) {
    TAICHI_ERROR(now_, "Simulation::At: schedule into the past (when=%" PRIu64
                       " now=%" PRIu64 ")",
                 when, now_);
    assert(when >= now_ && "Simulation::At: cannot schedule into the past");
    when = now_;  // Without asserts: clamp rather than corrupt the heap order.
  }
  return queue_.Schedule(when, std::move(fn));
}

void Simulation::RunUntil(SimTime deadline) {
  const bool was_stepping = stepping_.exchange(true, std::memory_order_acquire);
  assert(!was_stepping && "Simulation stepped from two threads: cross-node state leak");
  (void)was_stepping;
  stopped_ = false;
  while (!stopped_ && !queue_.empty() && queue_.NextTime() <= deadline) {
    EventQueue::Fired fired = queue_.PopNext();
    assert(fired.when >= now_ && "event queue went backwards");
    now_ = fired.when;
    ++events_executed_;
    fired.fn();
    if (fired.repeating) {
      // Hand the callback back to its (re-keyed) slot. Dropped if the
      // callback cancelled itself.
      queue_.RestoreRepeating(fired.id, std::move(fired.fn));
    }
  }
  if (!stopped_ && now_ < deadline && deadline != std::numeric_limits<SimTime>::max()) {
    now_ = deadline;
  }
  stepping_.store(false, std::memory_order_release);
}

}  // namespace taichi::sim
