// A cancellable discrete-event queue ordered by (time, insertion sequence).
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/sim/inline_callback.h"
#include "src/sim/time.h"

namespace taichi::sim {

// Identifies a scheduled event so it can be cancelled before it fires.
// Id 0 is never allocated and acts as "no event".
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// Timed callbacks popped in (time, insertion sequence) order. Events at equal
// times fire in insertion order, which keeps simulations deterministic. Not
// thread-safe: each simulator instance is single-threaded by design (a fleet
// runs one queue per node).
//
// Layout: events live in recycled 96-byte slots (the callback buffer is
// inline). Pending events are ordered by a (time, sequence) key packed into
// one unsigned compare, and the keys live in two tiers that never touch the
// slot table while they compare:
//  * a near-future window: the earliest pending events (at most kWindow), kept
//    sorted in descending order, so the next event is the window's back and a
//    pop is O(1). Every key in the window is below every key in the heap.
//  * a 4-ary min-heap behind it for everything later. Heap entries carry their
//    key inline, so a sift walks a contiguous 32-byte-stride array.
// Most events in this simulator are stages a few µs long (accelerator window,
// PCIe leg, DP burst) scheduled in front of nearly every pending event, so
// they enter and leave through the window's back without a heap sift. A key
// above the heap top goes to the heap (into an empty window, the heap top
// moves to the window and the key takes its place in one sift); a full
// window spills its latest entry to the heap; a pop from an empty window
// first refills it from the heap with up to half its capacity.
//
// An EventId packs (slot generation, slot index), so Cancel() and IsPending()
// are O(1) slot lookups — a stale id sees a bumped generation and misses —
// and cancellation removes the event immediately instead of leaving a
// tombstone (a window entry is found by a scan of at most kWindow entries).
// Idle-poll fast-forwarding cancels and reschedules constantly, so the
// structure must not accumulate dead entries between pops.
//
// A repeating event is re-keyed once per firing: PopNext() only reserves its
// next key, and RestoreRepeating() inserts it unless the callback rescheduled
// or cancelled the event meanwhile. While its callback runs the event counts
// as pending (IsPending, size, NextTime, ShrinkToFit).
//
// The steady-state schedule → fire cycle is allocation-free: callbacks are
// InlineCallback (no per-closure heap spill), slots, the window and heap
// entries recycle, and standing timers can be re-keyed (Reschedule) or
// re-armed without callback reconstruction (ScheduleRepeating).
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` to run at absolute time `when`. Returns a handle usable
  // with Cancel() until the event has fired.
  EventId Schedule(SimTime when, InlineCallback fn) {
    return ScheduleSlot(when, 0, std::move(fn));
  }

  // Schedules `fn` at `first`, then every `period` after that, reusing one
  // slot and one callback forever: each firing reserves the next key (time +=
  // period, fresh sequence number) instead of freeing + reallocating the slot.
  // The id stays valid across firings; Cancel() stops the repetition, and
  // Reschedule() (typically from inside the callback) overrides the next
  // firing time. Requires period > 0.
  EventId ScheduleRepeating(SimTime first, Duration period, InlineCallback fn) {
    return ScheduleSlot(first, period, std::move(fn));
  }

  // Re-keys a pending event to fire at `when` instead: its key is removed and
  // inserted again, with no slot free/alloc, no generation bump, and the
  // callback untouched. The event receives a fresh sequence number, so its
  // order against other events at the same time is exactly as if it had been
  // cancelled and rescheduled. Returns false (and does nothing) if `id` is
  // not pending.
  bool Reschedule(EventId id, SimTime when);

  // Cancels a pending event. Cancelling an already-fired or already-cancelled
  // event is a harmless no-op. Returns true if the event was still pending.
  bool Cancel(EventId id);

  // True if `id` is scheduled and not yet fired or cancelled.
  bool IsPending(EventId id) const;

  bool empty() const { return size() == 0; }
  size_t size() const {
    return window_size_ + heap_.size() + (inflight_slot_ != kNoSlot ? 1 : 0);
  }

  // Time of the earliest pending event. Only valid when !empty().
  SimTime NextTime() const {
    // Window keys are below heap keys; an empty window and heap leave the
    // in-flight reservation as the only pending event.
    unsigned __int128 next = window_size_ > 0 ? window_[window_size_ - 1].key
                             : heap_.empty()  ? inflight_key_
                                              : heap_.front().key;
    if (inflight_slot_ != kNoSlot && inflight_key_ < next) {
      next = inflight_key_;
    }
    return static_cast<SimTime>(next >> 64);
  }

  // Removes and returns the earliest pending event. Only valid when !empty().
  // For a repeating event the slot stays live and its next key (when +
  // period, fresh sequence number) is reserved; the callback is moved out for
  // the caller to invoke and must be handed back via RestoreRepeating()
  // afterwards (the slot cannot be borrowed from during the callback: nested
  // schedules may reallocate the slot table, and Cancel may free the slot
  // mid-callback).
  struct Fired {
    SimTime when;
    EventId id;
    InlineCallback fn;
    bool repeating = false;
  };
  Fired PopNext();

  // Returns a repeating callback to its slot after invocation and inserts the
  // key PopNext() reserved, unless the callback rescheduled the event (its
  // new key is already in place). A no-op if the event was cancelled (or
  // cancelled + slot reused) during its own callback — the callback is then
  // dropped on the floor, ending the cycle.
  void RestoreRepeating(EventId id, InlineCallback fn);

  // Releases slot-table memory after a burst: drops trailing free slots and
  // rebuilds the free list. Cheap no-op unless the table is mostly free
  // (pending ≪ capacity), so callers can invoke it at natural quiesce points
  // (the fleet layer does, between epochs). Live slots never move — their
  // ids stay valid — and ids of dropped slots can never alias future events:
  // regrown slots start at a generation floor above every dropped one.
  //
  // The queue also self-triggers this check every kAutoShrinkPopInterval
  // pops, so a long single-node run whose burst high-water mark has passed
  // returns slot memory without anyone calling ShrinkToFit() — the gates
  // above make the periodic check a two-compare no-op in steady state, and
  // shrinking is memory-only: event order and ids of live events are
  // untouched.
  void ShrinkToFit();
  static constexpr uint32_t kAutoShrinkPopInterval = 4096;

  // Total events scheduled since construction (fired, pending or cancelled).
  // A repeating event counts once per arming or firing, matching the
  // schedule-per-cycle pattern it replaces.
  uint64_t total_scheduled() const { return next_seq_ - 1; }

  // Current slot-table capacity (test/introspection hook for ShrinkToFit).
  size_t slot_count() const { return slots_.size(); }

 private:
  // Near-future window capacity; a refill takes half of it.
  static constexpr uint32_t kWindow = 32;
  // Slot::pos values above every heap position.
  static constexpr uint32_t kInWindow = UINT32_MAX - 2;
  static constexpr uint32_t kInFlight = UINT32_MAX - 1;  // Callback running.
  static constexpr uint32_t kNotPending = UINT32_MAX;
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  // ShrinkToFit leaves tables smaller than this alone: re-growing would cost
  // more than the held memory is worth.
  static constexpr size_t kShrinkMinSlots = 256;

  // The (when, seq) key lives in the window or heap entry, not here: the
  // ordering loops must not dereference this (large) struct per comparison.
  struct Slot {
    Duration period = 0;  // > 0: repeating; PopNext reserves the next key.
    InlineCallback fn;
    uint32_t gen = 0;  // Bumped on free; stale ids miss.
    // Heap position, or kInWindow, kInFlight or kNotPending.
    uint32_t pos = kNotPending;
    uint32_t next_free = kNoSlot;
  };

  // The (time, sequence) key packed so one unsigned compare is the full
  // lexicographic order; seq is globally unique, so keys never tie and pop
  // order is independent of how the window and heap arrange their entries.
  struct Entry {
    unsigned __int128 key;
    uint32_t slot;

    SimTime when() const { return static_cast<SimTime>(key >> 64); }
  };

  static unsigned __int128 MakeKey(SimTime when, uint64_t seq) {
    return (static_cast<unsigned __int128>(when) << 64) | seq;
  }

  static EventId MakeId(uint32_t slot, uint32_t gen) {
    // +1 keeps id 0 unallocated even for (slot 0, gen 0).
    return (static_cast<EventId>(gen) << 32) | (slot + 1);
  }
  // Returns the slot index for `id` if it refers to a live event, else
  // a value >= slots_.size().
  size_t LiveSlotOf(EventId id) const;

  EventId ScheduleSlot(SimTime when, Duration period, InlineCallback fn);

  // Files (key, slot) in the window or the heap, keeping every window key
  // below every heap key.
  void Insert(unsigned __int128 key, uint32_t slot);
  // Takes `slot` out of the window, the heap or the in-flight reservation;
  // the slot is then not pending.
  void Detach(uint32_t slot);
  // Moves up to kWindow / 2 of the earliest heap entries into the empty
  // window.
  void Refill();

  void SiftUp(size_t pos);
  // Walks the hole at `pos` to a leaf promoting the best child (no per-level
  // compare against the displaced entry), then sifts the entry up from there.
  // The entry is the heap's last (on removal) or a key scheduled behind the
  // heap top (on promotion into an empty window), so it is nearly always
  // late and the sift-up is almost always a single compare.
  void SiftDownFromTop(size_t pos);
  // Detaches the heap entry at `pos` (swap with last + sift both ways).
  void RemoveFromHeap(size_t pos);
  // Appends (key, slot) to the heap and restores the heap property.
  void PushHeap(unsigned __int128 key, uint32_t slot);
  // Returns the slot at `slot` to the free list and invalidates its id.
  void FreeSlot(uint32_t slot);

  std::vector<Slot> slots_;
  // Near-future window in descending key order: window_[0] is the latest
  // entry, window_[window_size_ - 1] the next event.
  std::array<Entry, kWindow> window_;
  uint32_t window_size_ = 0;
  std::vector<Entry> heap_;  // 4-ary min-heap by (when, seq).
  // The repeating event whose callback is running, and its next key.
  uint32_t inflight_slot_ = kNoSlot;
  unsigned __int128 inflight_key_ = 0;
  uint32_t free_head_ = kNoSlot;
  // Slots created after a ShrinkToFit start at this generation, keeping every
  // id handed out for a dropped slot permanently dead.
  uint32_t gen_floor_ = 0;
  uint32_t pops_since_shrink_check_ = 0;
  uint64_t next_seq_ = 1;
};

}  // namespace taichi::sim

#endif  // SRC_SIM_EVENT_QUEUE_H_
