#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <utility>
#include <vector>

namespace taichi::sim {
namespace {

TEST(EventQueueTest, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(30, [&] { order.push_back(3); });
  q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    q.PopNext().fn();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  EventId id = q.Schedule(10, [&] { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelIsIdempotent) {
  EventQueue q;
  EventId id = q.Schedule(10, [] {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueueTest, CancelAfterFireReturnsFalse) {
  EventQueue q;
  EventId id = q.Schedule(10, [] {});
  q.PopNext().fn();
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueueTest, CancelInvalidIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
  EXPECT_FALSE(q.Cancel(12345));
}

TEST(EventQueueTest, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(10, [&] { order.push_back(1); });
  EventId mid = q.Schedule(20, [&] { order.push_back(2); });
  q.Schedule(30, [&] { order.push_back(3); });
  q.Cancel(mid);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  EventId early = q.Schedule(10, [] {});
  q.Schedule(20, [] {});
  q.Cancel(early);
  EXPECT_EQ(q.NextTime(), 20u);
}

TEST(EventQueueTest, IsPendingTracksLifecycle) {
  EventQueue q;
  EventId id = q.Schedule(10, [] {});
  EXPECT_TRUE(q.IsPending(id));
  q.PopNext();
  EXPECT_FALSE(q.IsPending(id));
}

TEST(EventQueueTest, TotalScheduledCounts) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(i, [] {});
  }
  EXPECT_EQ(q.total_scheduled(), 5u);
}

TEST(EventQueueTest, TotalScheduledCountsCancelledAndFired) {
  EventQueue q;
  EventId a = q.Schedule(1, [] {});
  q.Schedule(2, [] {});
  q.Cancel(a);
  q.PopNext();
  // Cancelling and firing never un-count an allocation, and slot reuse must
  // not double-count: the next schedule is event #3.
  EXPECT_EQ(q.total_scheduled(), 2u);
  q.Schedule(3, [] {});
  EXPECT_EQ(q.total_scheduled(), 3u);
}

TEST(EventQueueTest, StaleIdAfterSlotReuseDoesNotTouchNewEvent) {
  EventQueue q;
  EventId old_id = q.Schedule(10, [] {});
  ASSERT_TRUE(q.Cancel(old_id));
  // The freed slot is recycled for the next event; the stale id must not
  // alias it.
  bool fired = false;
  EventId new_id = q.Schedule(20, [&] { fired = true; });
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(q.IsPending(old_id));
  EXPECT_TRUE(q.IsPending(new_id));
  EXPECT_FALSE(q.Cancel(old_id));
  ASSERT_EQ(q.size(), 1u);
  q.PopNext().fn();
  EXPECT_TRUE(fired);
}

TEST(EventQueueTest, SlotGenerationSurvivesManyReuses) {
  EventQueue q;
  EventId first = q.Schedule(1, [] {});
  q.Cancel(first);
  // Drive many alloc/free cycles through the same slot; every retired id
  // must stay dead.
  std::vector<EventId> retired{first};
  for (int i = 0; i < 1000; ++i) {
    EventId id = q.Schedule(static_cast<SimTime>(i), [] {});
    EXPECT_TRUE(q.IsPending(id));
    q.Cancel(id);
    retired.push_back(id);
  }
  for (EventId id : retired) {
    EXPECT_FALSE(q.IsPending(id));
    EXPECT_FALSE(q.Cancel(id));
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, FifoOrderAtEqualTimesSurvivesInterleavedCancels) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(q.Schedule(7, [&order, i] { order.push_back(i); }));
  }
  // Cancel the odd ones; the evens must still fire in insertion order.
  for (int i = 1; i < 16; i += 2) {
    EXPECT_TRUE(q.Cancel(ids[static_cast<size_t>(i)]));
  }
  // Reschedule at the same timestamp: new events sort after all survivors.
  q.Schedule(7, [&order] { order.push_back(100); });
  while (!q.empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 8, 10, 12, 14, 100}));
}

TEST(EventQueueTest, CancelRescheduleChurnKeepsQueueConsistent) {
  // The idle-poll pattern: standing timers constantly cancelled and pushed
  // out. Sizes and pop order must stay exact through heavy slot recycling.
  EventQueue q;
  std::vector<EventId> ids;
  uint64_t seed = 7;
  SimTime t = 0;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(q.Schedule(++t, [] {}));
  }
  for (int round = 0; round < 5000; ++round) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    size_t victim = seed % ids.size();
    EXPECT_TRUE(q.Cancel(ids[victim]));
    EXPECT_FALSE(q.IsPending(ids[victim]));
    ids[victim] = q.Schedule(++t, [] {});
    EXPECT_EQ(q.size(), ids.size());
  }
  EXPECT_EQ(q.total_scheduled(), 64u + 5000u);
  SimTime last = 0;
  size_t popped = 0;
  while (!q.empty()) {
    auto fired = q.PopNext();
    EXPECT_GT(fired.when, last);  // All distinct times here.
    last = fired.when;
    ++popped;
  }
  EXPECT_EQ(popped, ids.size());
}

TEST(EventQueueTest, RescheduleMovesEventLater) {
  EventQueue q;
  std::vector<int> order;
  EventId a = q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(20, [&] { order.push_back(2); });
  EXPECT_TRUE(q.Reschedule(a, 30));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.IsPending(a));  // Same id stays valid: no generation bump.
  while (!q.empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueueTest, RescheduleMovesEventEarlier) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(20, [&] { order.push_back(2); });
  EventId late = q.Schedule(30, [&] { order.push_back(1); });
  EXPECT_TRUE(q.Reschedule(late, 10));
  EXPECT_EQ(q.NextTime(), 10u);
  while (!q.empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, RescheduleToEqualTimeOrdersAfterExistingEvents) {
  // The contract that keeps Cancel+Schedule -> Reschedule conversions
  // byte-identical: a re-keyed event gets a fresh seq, so at an equal
  // timestamp it fires after everything already scheduled there — exactly
  // where a newly scheduled replacement would land.
  EventQueue q;
  std::vector<int> order;
  EventId first = q.Schedule(5, [&] { order.push_back(0); });
  for (int i = 1; i <= 3; ++i) {
    q.Schedule(5, [&order, i] { order.push_back(i); });
  }
  EXPECT_TRUE(q.Reschedule(first, 5));
  while (!q.empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 0}));
}

TEST(EventQueueTest, RescheduleDeadIdReturnsFalse) {
  EventQueue q;
  EventId fired = q.Schedule(1, [] {});
  q.PopNext();
  EXPECT_FALSE(q.Reschedule(fired, 10));
  EventId cancelled = q.Schedule(2, [] {});
  q.Cancel(cancelled);
  EXPECT_FALSE(q.Reschedule(cancelled, 10));
  EXPECT_FALSE(q.Reschedule(kInvalidEventId, 10));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, RepeatingEventFiresAtEveryPeriodWithOneId) {
  EventQueue q;
  int hits = 0;
  EventId id = q.ScheduleRepeating(10, 10, [&] { ++hits; });
  std::vector<SimTime> times;
  for (int i = 0; i < 4; ++i) {
    ASSERT_FALSE(q.empty());
    EventQueue::Fired fired = q.PopNext();
    EXPECT_TRUE(fired.repeating);
    EXPECT_EQ(fired.id, id);
    times.push_back(fired.when);
    fired.fn();
    q.RestoreRepeating(fired.id, std::move(fired.fn));
  }
  EXPECT_EQ(hits, 4);
  EXPECT_EQ(times, (std::vector<SimTime>{10, 20, 30, 40}));
  EXPECT_TRUE(q.IsPending(id));
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, RepeatingReKeySeqIsAssignedAtPop) {
  // The re-key happens at pop, BEFORE the callback body runs: the next
  // firing orders ahead of events the callback schedules at the same time.
  // That matches a loop that re-arms at the top of its callback (the kernel
  // tick re-armed before any preemption scheduling).
  EventQueue q;
  std::vector<int> order;
  EventId rep = q.ScheduleRepeating(10, 10, [&] { order.push_back(0); });
  EventQueue::Fired fired = q.PopNext();  // Fires at 10; re-keyed to 20.
  fired.fn();
  q.Schedule(20, [&] { order.push_back(1); });  // Scheduled "inside" the callback.
  q.RestoreRepeating(fired.id, std::move(fired.fn));
  fired = q.PopNext();
  EXPECT_EQ(fired.when, 20u);
  EXPECT_EQ(fired.id, rep);  // The repeating event's earlier seq wins.
  fired.fn();
  q.Cancel(rep);
  q.PopNext().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 0, 1}));
}

TEST(EventQueueTest, RescheduleAtBottomRestoresSelfRescheduleOrder) {
  // A loop that used to re-arm at the BOTTOM of its callback (arrival
  // processes) keeps its old equal-time order by ending the callback with
  // Reschedule: the fresh seq lands after the callback's own schedules,
  // exactly where the old self-Schedule's seq landed.
  EventQueue q;
  std::vector<int> order;
  EventId rep = q.ScheduleRepeating(10, 10, [&] { order.push_back(0); });
  EventQueue::Fired fired = q.PopNext();  // Fires at 10; re-keyed to 20.
  fired.fn();
  q.Schedule(20, [&] { order.push_back(1); });  // The callback's side effect.
  EXPECT_TRUE(q.Reschedule(rep, 20));           // Bottom re-arm, fresh seq.
  q.RestoreRepeating(fired.id, std::move(fired.fn));
  fired = q.PopNext();
  EXPECT_EQ(fired.when, 20u);
  fired.fn();  // The one-shot now fires first...
  fired = q.PopNext();
  EXPECT_EQ(fired.id, rep);  // ...and the repeating event after it.
  fired.fn();
  q.Cancel(rep);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0}));
}

TEST(EventQueueTest, CancelDuringOwnCallbackEndsRepeatingCycle) {
  EventQueue q;
  int hits = 0;
  EventId id = kInvalidEventId;
  id = q.ScheduleRepeating(5, 5, [&] {
    ++hits;
    if (hits == 2) {
      EXPECT_TRUE(q.Cancel(id));
    }
  });
  for (int rounds = 0; rounds < 10 && !q.empty(); ++rounds) {
    EventQueue::Fired fired = q.PopNext();
    fired.fn();
    q.RestoreRepeating(fired.id, std::move(fired.fn));
  }
  EXPECT_EQ(hits, 2);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.IsPending(id));
}

TEST(EventQueueTest, RescheduleDuringOwnCallbackOverridesPeriod) {
  EventQueue q;
  std::vector<SimTime> fire_times;
  EventId id = kInvalidEventId;
  id = q.ScheduleRepeating(10, 10, [&] {
    // fire_times is recorded before the callback runs, so size()==2 means
    // this is the second firing (at t=20).
    if (fire_times.size() == 2) {
      EXPECT_TRUE(q.Reschedule(id, fire_times.back() + 100));
    }
  });
  for (int i = 0; i < 3; ++i) {
    EventQueue::Fired fired = q.PopNext();
    fire_times.push_back(fired.when);
    fired.fn();
    q.RestoreRepeating(fired.id, std::move(fired.fn));
  }
  q.Cancel(id);
  // Second firing pushed the third out to 20 + 100.
  EXPECT_EQ(fire_times, (std::vector<SimTime>{10, 20, 120}));
}

TEST(EventQueueTest, ShrinkToFitReleasesTrailingSlotsAndKeepsLiveOnes) {
  EventQueue q;
  // A survivor in the low slot range: shrink must not disturb it. (Scheduled
  // first so the burst occupies the trailing slots the trim can release.)
  bool survivor_fired = false;
  EventId survivor = q.Schedule(50, [&] { survivor_fired = true; });
  std::vector<EventId> burst;
  for (int i = 0; i < 2000; ++i) {
    burst.push_back(q.Schedule(static_cast<SimTime>(100 + i), [] {}));
  }
  for (EventId id : burst) {
    EXPECT_TRUE(q.Cancel(id));
  }
  const size_t before = q.slot_count();
  ASSERT_GE(before, 2000u);
  q.ShrinkToFit();
  EXPECT_LT(q.slot_count(), before);
  EXPECT_TRUE(q.IsPending(survivor));
  q.PopNext().fn();
  EXPECT_TRUE(survivor_fired);
}

TEST(EventQueueTest, ShrinkToFitSkipsBusyOrSmallQueues) {
  EventQueue q;
  for (int i = 0; i < 64; ++i) {
    q.Schedule(static_cast<SimTime>(i), [] {});
  }
  const size_t small = q.slot_count();
  q.ShrinkToFit();  // Below the size floor: no-op.
  EXPECT_EQ(q.slot_count(), small);

  for (int i = 64; i < 2000; ++i) {
    q.Schedule(static_cast<SimTime>(i), [] {});
  }
  const size_t busy = q.slot_count();
  q.ShrinkToFit();  // Mostly pending: no-op.
  EXPECT_EQ(q.slot_count(), busy);
}

TEST(EventQueueTest, StaleIdsStayDeadAcrossShrinkAndRegrow) {
  EventQueue q;
  std::vector<EventId> retired;
  for (int i = 0; i < 1500; ++i) {
    EventId id = q.Schedule(static_cast<SimTime>(i), [] {});
    q.Cancel(id);
    retired.push_back(id);
  }
  q.ShrinkToFit();
  // Regrow over the dropped indices: generation floor keeps old ids dead.
  std::vector<EventId> fresh;
  for (int i = 0; i < 1500; ++i) {
    fresh.push_back(q.Schedule(static_cast<SimTime>(i), [] {}));
  }
  for (EventId id : retired) {
    EXPECT_FALSE(q.IsPending(id));
    EXPECT_FALSE(q.Cancel(id));
    EXPECT_FALSE(q.Reschedule(id, 1));
  }
  for (EventId id : fresh) {
    EXPECT_TRUE(q.IsPending(id));
  }
}

TEST(EventQueueTest, AutoShrinkReclaimsBurstHighWaterMark) {
  // Nobody calls ShrinkToFit() here: after a burst drains, the queue's own
  // periodic pop check must return the slot-table memory while a standing
  // repeating timer keeps running.
  EventQueue q;
  bool survivor_fired = false;
  q.Schedule(1, [&] { survivor_fired = true; });  // Slot 0.
  std::vector<EventId> burst;
  for (int i = 0; i < 6000; ++i) {
    burst.push_back(q.Schedule(static_cast<SimTime>(1000000 + i), [] {}));
  }
  // Cancel in reverse so the free-list head lands on the lowest burst slot:
  // the ticker below then reuses slot 1 and the whole tail stays trimmable.
  for (auto it = burst.rbegin(); it != burst.rend(); ++it) {
    EXPECT_TRUE(q.Cancel(*it));
  }
  int ticks = 0;
  EventId ticker = q.ScheduleRepeating(2, 1, [&] { ++ticks; });
  const size_t high_water = q.slot_count();
  ASSERT_GE(high_water, 6000u);

  for (uint32_t i = 0; i <= EventQueue::kAutoShrinkPopInterval; ++i) {
    EventQueue::Fired fired = q.PopNext();
    fired.fn();
    if (fired.repeating) {
      q.RestoreRepeating(fired.id, std::move(fired.fn));
    }
  }
  EXPECT_TRUE(survivor_fired);
  EXPECT_LT(q.slot_count(), high_water);
  EXPECT_LE(q.slot_count(), 2u);
  // The standing timer survived the shrink: same id, still firing.
  EXPECT_TRUE(q.IsPending(ticker));
  EXPECT_EQ(ticks, static_cast<int>(EventQueue::kAutoShrinkPopInterval));
  EventQueue::Fired next = q.PopNext();
  next.fn();
  EXPECT_EQ(ticks, static_cast<int>(EventQueue::kAutoShrinkPopInterval) + 1);
}

TEST(EventQueueTest, MoveOnlyCaptureSchedules) {
  EventQueue q;
  auto owned = std::make_unique<int>(41);
  int got = 0;
  q.Schedule(1, [p = std::move(owned), &got] { got = *p + 1; });
  q.PopNext().fn();
  EXPECT_EQ(got, 42);
}


// ---- Randomized churn against an ordered-map oracle --------------------------
//
// Every operation lands on the queue and on a std::map keyed (when, seq) that
// follows the queue's sequence rule: each Schedule, Reschedule and repeating
// pop takes the next seq. The queue must pop exactly the oracle's order (same
// time, same event) and agree with it on size(), NextTime() and the return
// value of every IsPending, Cancel and Reschedule — also while a repeating
// event's callback runs, when the event is pending under the key its pop
// reserved. Liveness is tracked per scheduled event, not per id value, so a
// stale id that aliases a newer event's id shows up as a mismatch.
class OracleHarness {
 public:
  // What a popped repeating event's callback does to its own id before the
  // callback is handed back to the slot.
  enum class OnRepeat { kKeep, kReschedule, kCancel };

  // Returns the event's marker, which is also its index among issued ids.
  size_t Schedule(SimTime when, Duration period = 0) {
    const size_t marker = issued_.size();
    auto fn = [this, marker] { fired_marker_ = marker; };
    const EventId id =
        period > 0 ? q_.ScheduleRepeating(when, period, fn) : q_.Schedule(when, fn);
    issued_.push_back(id);
    fires_.push_back(0);
    Insert(Key{when, next_seq_++}, Entry{id, marker, period});
    return marker;
  }

  // `pick` selects among every event ever scheduled, dead ones included.
  void Cancel(uint64_t pick) { CancelMarker(pick % issued_.size()); }

  void Reschedule(uint64_t pick, SimTime when) {
    RescheduleMarker(pick % issued_.size(), when);
  }

  void IsPending(uint64_t pick) {
    const size_t marker = pick % issued_.size();
    EXPECT_EQ(q_.IsPending(issued_[marker]), key_of_.count(marker) == 1);
  }

  // Cancel and Reschedule of the pending event with the given rank in
  // (when, seq) order; rank 0 fires next.
  void CancelRank(size_t rank) { CancelMarker(MarkerAtRank(rank)); }
  void RescheduleRank(size_t rank, SimTime when) {
    RescheduleMarker(MarkerAtRank(rank), when);
  }

  // Pops the earliest event and checks it against the oracle's minimum.
  // Returns false once both are empty.
  bool PopOne(OnRepeat on_repeat = OnRepeat::kKeep, SimTime reschedule_to = 0) {
    ExpectQueueMatches();
    if (pending_.empty()) {
      return false;
    }
    const auto [key, entry] = *pending_.begin();
    pending_.erase(pending_.begin());
    key_of_.erase(entry.marker);
    if (entry.period > 0) {
      Insert(Key{key.first + entry.period, next_seq_++}, entry);
    }

    EventQueue::Fired fired = q_.PopNext();
    ++pops_;
    now_ = fired.when;
    fired_marker_ = SIZE_MAX;
    fired.fn();
    EXPECT_EQ(fired.when, key.first);
    EXPECT_EQ(fired_marker_, entry.marker) << "popped the wrong event at t=" << key.first;
    EXPECT_EQ(fired.id, entry.id);
    EXPECT_EQ(fired.repeating, entry.period > 0);
    if (fired_marker_ < fires_.size()) {
      ++fires_[fired_marker_];
    }
    if (fired.repeating) {
      // Still inside the callback: the event is pending under its reserved
      // key, before and after it re-keys or cancels itself.
      ExpectQueueMatches();
      EXPECT_TRUE(q_.IsPending(fired.id));
      if (on_repeat == OnRepeat::kReschedule) {
        RescheduleMarker(entry.marker, reschedule_to);
      } else if (on_repeat == OnRepeat::kCancel) {
        CancelMarker(entry.marker);
      }
      ExpectQueueMatches();
      EXPECT_EQ(q_.IsPending(fired.id), on_repeat != OnRepeat::kCancel);
      q_.RestoreRepeating(fired.id, std::move(fired.fn));
    }
    return true;
  }

  // Explicit shrink: memory-only, so every live id must stay pending.
  void ShrinkToFit() {
    q_.ShrinkToFit();
    EXPECT_EQ(q_.size(), pending_.size());
    for (const auto& [marker, key] : key_of_) {
      EXPECT_TRUE(q_.IsPending(issued_[marker]));
    }
  }

  const EventQueue& queue() const { return q_; }
  SimTime now() const { return now_; }
  size_t pops() const { return pops_; }
  int fires(size_t marker) const { return fires_[marker]; }

 private:
  using Key = std::pair<SimTime, uint64_t>;
  struct Entry {
    EventId id;
    size_t marker;
    Duration period;
  };

  void Insert(Key key, Entry entry) {
    key_of_[entry.marker] = key;
    pending_.emplace(key, entry);
  }

  void ExpectQueueMatches() const {
    EXPECT_EQ(q_.size(), pending_.size());
    EXPECT_EQ(q_.total_scheduled(), next_seq_ - 1);
    EXPECT_EQ(q_.empty(), pending_.empty());
    if (!pending_.empty()) {
      EXPECT_EQ(q_.NextTime(), pending_.begin()->first.first);
    }
  }

  size_t MarkerAtRank(size_t rank) const {
    auto it = pending_.begin();
    std::advance(it, rank);
    return it->second.marker;
  }

  void CancelMarker(size_t marker) {
    const auto it = key_of_.find(marker);
    EXPECT_EQ(q_.Cancel(issued_[marker]), it != key_of_.end());
    if (it != key_of_.end()) {
      pending_.erase(it->second);
      key_of_.erase(it);
    }
  }

  void RescheduleMarker(size_t marker, SimTime when) {
    const auto it = key_of_.find(marker);
    EXPECT_EQ(q_.Reschedule(issued_[marker], when), it != key_of_.end());
    if (it != key_of_.end()) {
      const Entry entry = pending_.at(it->second);
      pending_.erase(it->second);
      Insert(Key{when, next_seq_++}, entry);
    }
  }

  EventQueue q_;
  std::map<Key, Entry> pending_;
  std::map<size_t, Key> key_of_;  // By marker; live events only.
  std::vector<EventId> issued_;
  std::vector<int> fires_;
  uint64_t next_seq_ = 1;
  size_t fired_marker_ = SIZE_MAX;
  SimTime now_ = 0;
  size_t pops_ = 0;
};

TEST(EventQueueTest, RandomChurnMatchesOrderedMapOracle) {
  OracleHarness h;
  uint64_t seed = 0x5eed;
  auto rnd = [&seed] {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return seed >> 16;
  };

  // A far-future sentinel behind a dense population: the dense events pop
  // first and the sentinel stays pending through the phases below.
  constexpr SimTime kSentinel = static_cast<SimTime>(1) << 60;
  h.Schedule(kSentinel);
  for (int i = 0; i < 1024; ++i) {
    h.Schedule(static_cast<SimTime>(100 + i));
  }
  for (int i = 0; i < 1024; ++i) {
    h.PopOne();
  }
  ASSERT_EQ(h.queue().size(), 1u);
  EXPECT_EQ(h.queue().NextTime(), kSentinel);

  // 256 standing repeating timers spread over one period: in 256 x 50 pops
  // each fires exactly 50 times.
  constexpr int kTimers = 256;
  constexpr Duration kPeriod = 1000;
  std::vector<size_t> timers;
  const SimTime base = h.now();
  for (int i = 0; i < kTimers; ++i) {
    timers.push_back(h.Schedule(base + 1 + static_cast<SimTime>(i) * kPeriod / kTimers, kPeriod));
  }
  for (int i = 0; i < kTimers * 50; ++i) {
    h.PopOne();
  }
  for (size_t t : timers) {
    EXPECT_EQ(h.fires(t), 50) << "timer " << t;
    h.Cancel(t);
  }

  // The near-future window: a queue several windows deep, so pops refill the
  // window from the heap and bursts in front of everything overfill it and
  // spill its latest entries to the heap. Cancels and re-keys by rank hit the
  // window (low ranks) and the heap (high ranks), moving events window ->
  // heap (re-keyed far out) and heap -> window (re-keyed to just after now).
  // Short-period repeating events keep, re-key or cancel themselves inside
  // their callbacks while the window churns around them.
  for (int round = 0; round < 40; ++round) {
    const SimTime now = h.now();
    for (int i = 0; i < 40; ++i) {
      h.Schedule(now + 2000 + rnd() % 200000);
    }
    for (int i = 0; i < 4; ++i) {
      h.Schedule(now + 1 + rnd() % 3000, static_cast<Duration>(200 + rnd() % 800));
    }
    for (int i = 0; i < 48; ++i) {
      h.Schedule(now + 1 + rnd() % 1500);
    }
    for (int i = 0; i < 24; ++i) {
      // Ranks among the 32 earliest and the 32 latest events, the sentinel
      // (the latest of all) excluded.
      const uint64_t r = rnd();
      const size_t size = h.queue().size();
      const size_t low = r % std::min<size_t>(size - 1, 32);
      const size_t high = size - 2 - low;
      switch (r % 5) {
        case 0:
          h.CancelRank(low);
          break;
        case 1:
          h.RescheduleRank(low, h.now() + 300000 + r % 1000);
          break;
        case 2:
          h.RescheduleRank(high, h.now() + 1 + r % 100);
          break;
        case 3:
          h.CancelRank(high);
          break;
        default:
          h.IsPending(rnd());
          break;
      }
      h.PopOne(static_cast<OracleHarness::OnRepeat>(rnd() % 3), h.now() + rnd() % 2000);
    }
    for (int i = 0; i < 40; ++i) {
      h.PopOne(static_cast<OracleHarness::OnRepeat>(rnd() % 3), h.now() + rnd() % 2000);
    }
  }
  // Drain everything but the sentinel; repeating events cancel themselves.
  while (h.queue().size() > 1) {
    h.PopOne(OracleHarness::OnRepeat::kCancel);
  }
  EXPECT_EQ(h.queue().NextTime(), kSentinel);

  // Two rounds of mixed churn, each followed by a drain with interleaved
  // cancels and explicit shrinks. Times cluster near now with occasional far
  // outliers and frequent ties; repeating callbacks keep, re-key or cancel
  // themselves, and cancel themselves while draining so the drain ends. The
  // first drain stops with a few events live and trims the slot table under
  // them, so the second round regrows it above the shrink's generation floor
  // while stale ids from the first round are still being probed.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 4000; ++i) {
      const uint64_t r = rnd();
      const SimTime when = h.now() + 1 + (r % 997) * (r % 31 == 0 ? 1000 : 1);
      if (r % 17 == 0) {
        h.Cancel(rnd());
      } else if (r % 23 == 0) {
        h.Reschedule(rnd(), when);
      } else if (r % 29 == 0) {
        h.IsPending(rnd());
      } else if (r % 13 == 0) {
        h.Schedule(when, static_cast<Duration>(1 + r % 300));
      } else {
        h.Schedule(when);
      }
      if (r % 5 == 0) {
        h.PopOne(static_cast<OracleHarness::OnRepeat>(rnd() % 3), when);
      }
    }
    const size_t keep = round == 0 ? 16 : 0;
    for (size_t pops = 1;
         h.queue().size() > keep && h.PopOne(OracleHarness::OnRepeat::kCancel); ++pops) {
      if (rnd() % 3 == 0) {
        h.Cancel(rnd());
      }
      if (pops % 512 == 0) {
        h.ShrinkToFit();
      }
    }
    if (round == 0) {
      const size_t high_water = h.queue().slot_count();
      h.ShrinkToFit();
      EXPECT_LT(h.queue().slot_count(), high_water);
    }
  }
  EXPECT_FALSE(h.PopOne());
  EXPECT_EQ(h.now(), kSentinel);
  EXPECT_GT(h.pops(), EventQueue::kAutoShrinkPopInterval);
}

TEST(EventQueueTest, StressManyEventsStayOrdered) {
  EventQueue q;
  // Pseudo-random times; verify nondecreasing pop order.
  uint64_t seed = 42;
  for (int i = 0; i < 10000; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    q.Schedule(seed % 1000, [] {});
  }
  SimTime last = 0;
  while (!q.empty()) {
    auto fired = q.PopNext();
    EXPECT_GE(fired.when, last);
    last = fired.when;
  }
}

}  // namespace
}  // namespace taichi::sim
