#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace taichi::sim {

EventId EventQueue::ScheduleSlot(SimTime when, Duration period, InlineCallback fn) {
  uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNoSlot;
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
    slots_.back().gen = gen_floor_;
  }
  Slot& s = slots_[slot];
  s.period = period;
  s.fn = std::move(fn);
  Insert(MakeKey(when, next_seq_++), slot);
  return MakeId(slot, s.gen);
}

size_t EventQueue::LiveSlotOf(EventId id) const {
  const size_t slot = (id & 0xffffffffu) - 1;  // id 0 wraps to SIZE_MAX.
  if (slot >= slots_.size()) {
    return slots_.size();
  }
  const Slot& s = slots_[slot];
  if (s.gen != static_cast<uint32_t>(id >> 32) || s.pos == kNotPending) {
    return slots_.size();
  }
  return slot;
}

bool EventQueue::IsPending(EventId id) const { return LiveSlotOf(id) < slots_.size(); }

bool EventQueue::Reschedule(EventId id, SimTime when) {
  const size_t slot = LiveSlotOf(id);
  if (slot >= slots_.size()) {
    return false;
  }
  Detach(static_cast<uint32_t>(slot));
  // A fresh sequence number, exactly as Cancel + Schedule would have
  // assigned: the re-keyed event orders after everything already scheduled
  // at the same time. This is what keeps the conversion byte-identical.
  Insert(MakeKey(when, next_seq_++), static_cast<uint32_t>(slot));
  return true;
}

bool EventQueue::Cancel(EventId id) {
  const size_t slot = LiveSlotOf(id);
  if (slot >= slots_.size()) {
    return false;
  }
  Detach(static_cast<uint32_t>(slot));
  FreeSlot(static_cast<uint32_t>(slot));
  return true;
}

EventQueue::Fired EventQueue::PopNext() {
  assert(!empty());
  assert(inflight_slot_ == kNoSlot && "PopNext before RestoreRepeating");
  if (window_size_ == 0) [[unlikely]] {
    Refill();
  }
  const Entry e = window_[--window_size_];
  Slot& s = slots_[e.slot];
  Fired fired{e.when(), MakeId(e.slot, s.gen), std::move(s.fn), s.period > 0};
  if (s.period > 0) {
    // Reserve the next firing; RestoreRepeating() files it unless the
    // callback re-keys or cancels the event first. The seq is taken now, so
    // the next firing orders before events the callback schedules at the
    // same time.
    s.pos = kInFlight;
    inflight_slot_ = e.slot;
    inflight_key_ = MakeKey(e.when() + s.period, next_seq_++);
  } else {
    s.pos = kNotPending;
    FreeSlot(e.slot);
  }
  // Periodic high-water-mark check: after a burst drains, the next check
  // returns the dead tail of the slot table. ShrinkToFit's own gates make
  // this free in steady state.
  if (++pops_since_shrink_check_ >= kAutoShrinkPopInterval) {
    pops_since_shrink_check_ = 0;
    ShrinkToFit();
  }
  return fired;
}

void EventQueue::RestoreRepeating(EventId id, InlineCallback fn) {
  const size_t slot = LiveSlotOf(id);
  if (slot >= slots_.size()) {
    return;  // Cancelled during its own callback; drop the cycle.
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  if (s.pos == kInFlight) {
    inflight_slot_ = kNoSlot;
    Insert(inflight_key_, static_cast<uint32_t>(slot));
  }
}

void EventQueue::ShrinkToFit() {
  // Gate: only worth it when the table is large and mostly free.
  if (slots_.size() < kShrinkMinSlots || size() * 4 > slots_.size()) {
    return;
  }
  // Only trailing free slots can go: live slots must keep their index.
  size_t keep = slots_.size();
  while (keep > 0 && slots_[keep - 1].pos == kNotPending) {
    --keep;
  }
  if (keep == slots_.size()) {
    return;
  }
  // Every id ever handed out for a dropped slot must stay dead, including
  // against slots regrown later at the same index.
  for (size_t i = keep; i < slots_.size(); ++i) {
    gen_floor_ = std::max(gen_floor_, slots_[i].gen + 1);
  }
  slots_.resize(keep);
  slots_.shrink_to_fit();
  heap_.shrink_to_fit();
  // Rebuild the free list over the surviving slots.
  free_head_ = kNoSlot;
  for (size_t i = keep; i-- > 0;) {
    if (slots_[i].pos == kNotPending) {
      slots_[i].next_free = free_head_;
      free_head_ = static_cast<uint32_t>(i);
    }
  }
}

void EventQueue::Insert(unsigned __int128 key, uint32_t slot) {
  if (!heap_.empty() && key > heap_.front().key) {
    if (window_size_ > 0) {
      PushHeap(key, slot);
      return;
    }
    // An empty window takes the heap top and the key sinks from the root in
    // its place: one sift both files the key and refills one entry. Timer
    // loops that schedule behind every pending event run on this path alone.
    window_[0] = heap_.front();
    window_size_ = 1;
    slots_[window_[0].slot].pos = kInWindow;
    heap_.front() = Entry{key, slot};
    SiftDownFromTop(0);
    return;
  }
  if (window_size_ == kWindow) {
    // Full: the latest of the window and the new key goes to the heap. It is
    // below every heap key, so the heap's order stays behind the window's.
    if (key > window_[0].key) {
      PushHeap(key, slot);
      return;
    }
    PushHeap(window_[0].key, window_[0].slot);
    std::copy(window_.begin() + 1, window_.end(), window_.begin());
    --window_size_;
  }
  // Short scan from the back: new events mostly land near the front of time.
  uint32_t i = window_size_;
  while (i > 0 && window_[i - 1].key < key) {
    window_[i] = window_[i - 1];
    --i;
  }
  window_[i] = Entry{key, slot};
  ++window_size_;
  slots_[slot].pos = kInWindow;
}

void EventQueue::Detach(uint32_t slot) {
  Slot& s = slots_[slot];
  if (s.pos == kInFlight) {
    inflight_slot_ = kNoSlot;
  } else if (s.pos == kInWindow) {
    const auto end = window_.begin() + window_size_;
    const auto it = std::find_if(window_.begin(), end,
                                 [slot](const Entry& e) { return e.slot == slot; });
    assert(it != end);
    std::copy(it + 1, end, it);
    --window_size_;
  } else {
    RemoveFromHeap(s.pos);
  }
  s.pos = kNotPending;
}

void EventQueue::Refill() {
  assert(window_size_ == 0 && !heap_.empty());
  const uint32_t n =
      static_cast<uint32_t>(std::min<size_t>(kWindow / 2, heap_.size()));
  // Heap pops come out ascending; the window stores them descending.
  for (uint32_t i = n; i-- > 0;) {
    window_[i] = heap_.front();
    RemoveFromHeap(0);
    slots_[window_[i].slot].pos = kInWindow;
  }
  window_size_ = n;
}

void EventQueue::PushHeap(unsigned __int128 key, uint32_t slot) {
  slots_[slot].pos = static_cast<uint32_t>(heap_.size());
  heap_.push_back(Entry{key, slot});
  SiftUp(heap_.size() - 1);
}

void EventQueue::SiftUp(size_t pos) {
  const Entry entry = heap_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) / 4;
    if (entry.key >= heap_[parent].key) {
      break;
    }
    heap_[pos] = heap_[parent];
    slots_[heap_[pos].slot].pos = static_cast<uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = entry;
  slots_[entry.slot].pos = static_cast<uint32_t>(pos);
}

void EventQueue::SiftDownFromTop(size_t pos) {
  const Entry entry = heap_[pos];
  const size_t n = heap_.size();
  for (;;) {
    const size_t first_child = pos * 4 + 1;
    if (first_child >= n) {
      break;
    }
    const size_t last_child = first_child + 4 < n ? first_child + 4 : n;
    size_t best = first_child;
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (heap_[c].key < heap_[best].key) {
        best = c;
      }
    }
    heap_[pos] = heap_[best];
    slots_[heap_[pos].slot].pos = static_cast<uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = entry;
  slots_[entry.slot].pos = static_cast<uint32_t>(pos);
  SiftUp(pos);
}

void EventQueue::RemoveFromHeap(size_t pos) {
  assert(pos < heap_.size());
  const Entry moved = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) {
    return;
  }
  heap_[pos] = moved;
  slots_[moved.slot].pos = static_cast<uint32_t>(pos);
  // `moved` came from the heap's bottom: it almost always sinks back down,
  // so take the compare-free path to a leaf and fix up from there.
  SiftDownFromTop(pos);
}

void EventQueue::FreeSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  assert(s.pos == kNotPending);
  s.fn = nullptr;
  s.period = 0;
  ++s.gen;  // Invalidates every outstanding id for this slot.
  s.next_free = free_head_;
  free_head_ = slot;
}

}  // namespace taichi::sim
