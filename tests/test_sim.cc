// Unit tests: discrete-event simulator (queue ordering, cancellation,
// periodic tasks, run_until semantics).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "check/reference_models.h"
#include "check/state_digest.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/time.h"

namespace inband {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.fire_next([](SimTime) {});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAmongEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&, i] { order.push_back(i); });
  }
  while (!q.empty()) q.fire_next([](SimTime) {});
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.push(10, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.push(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterPopFails) {
  EventQueue q;
  const EventId id = q.push(10, [] {});
  q.fire_next([](SimTime) {});
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId id = q.push(10, [] {});
  q.push(20, [] {});
  q.cancel(id);
  EXPECT_EQ(q.next_time(), 20);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.push(1, [] {});
  q.push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule_at(us(100), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, us(100));
  EXPECT_EQ(sim.now(), us(100));
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule_after(us(10), [&] {
    times.push_back(sim.now());
    sim.schedule_after(us(10), [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{us(10), us(20)}));
}

TEST(Simulator, ZeroDelayRunsAfterCurrentHandler) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(0, [&] {
    sim.schedule_after(0, [&] { order.push_back(2); });
    order.push_back(1);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, StopBreaksRun) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1, [&] {
    ++count;
    sim.stop();
  });
  sim.schedule_at(2, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, RunUntilExecutesInclusiveDeadline) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(us(10), [&] { ++count; });
  sim.schedule_at(us(20), [&] { ++count; });
  sim.schedule_at(us(21), [&] { ++count; });
  sim.run_until(us(20));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), us(20));
  sim.run_until(us(30));
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now(), us(30));
}

TEST(Simulator, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim;
  sim.run_until(ms(5));
  EXPECT_EQ(sim.now(), ms(5));
}

TEST(Simulator, CancelScheduledEvent) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(us(5), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, ExecutedEventsCounted) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 5u);
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1, [&] { ++count; });
  sim.schedule_at(2, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(PeriodicTask, FiresAtPeriod) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTask task{sim, ms(10), [&](SimTime t) { fires.push_back(t); }};
  task.start(ms(10));
  sim.run_until(ms(35));
  EXPECT_EQ(fires, (std::vector<SimTime>{ms(10), ms(20), ms(30)}));
}

TEST(PeriodicTask, CancelStopsFiring) {
  Simulator sim;
  int count = 0;
  PeriodicTask task{sim, ms(1), [&](SimTime) { ++count; }};
  task.start(ms(1));
  sim.schedule_at(ms(3) + 1, [&] { task.cancel(); });
  sim.run_until(ms(10));
  EXPECT_EQ(count, 3);
}

TEST(PeriodicTask, CallbackMayCancelItself) {
  Simulator sim;
  int count = 0;
  PeriodicTask task{sim, ms(1), [&](SimTime) {
                      if (++count == 2) task.cancel();
                    }};
  task.start(0);
  sim.run_until(ms(10));
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTask, DestructionCancels) {
  Simulator sim;
  int count = 0;
  {
    PeriodicTask task{sim, ms(1), [&](SimTime) { ++count; }};
    task.start(ms(1));
  }
  sim.run_until(ms(5));
  EXPECT_EQ(count, 0);
}

TEST(Simulator, HandlersCanScheduleManyLayers) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_after(1, recurse);
  };
  sim.schedule_at(0, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 99);
}

// --- EventCallback: the pool's erased callable ---

namespace cbtrack {
int live = 0;       // constructed minus destroyed
int destroyed = 0;  // total destructor runs
struct Tracked {
  Tracked() { ++live; }
  Tracked(const Tracked&) { ++live; }
  Tracked(Tracked&&) noexcept { ++live; }
  ~Tracked() {
    --live;
    ++destroyed;
  }
};
void reset_counters() {
  live = 0;
  destroyed = 0;
}
}  // namespace cbtrack

TEST(EventCallback, InvokesInlineTarget) {
  int hits = 0;
  EventCallback cb{[&] { ++hits; }};
  EXPECT_TRUE(static_cast<bool>(cb));
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(EventCallback, LargeCaptureFallsBackToHeap) {
  struct Big {
    std::array<std::int64_t, 64> payload;  // 512B, > kInlineBytes
  };
  static_assert(!EventCallback::fits_inline<Big>());
  Big big{};
  big.payload[0] = 7;
  big.payload[63] = 9;
  std::int64_t sum = 0;
  EventCallback cb{[big, &sum] { sum = big.payload[0] + big.payload[63]; }};
  cb();
  EXPECT_EQ(sum, 16);
}

TEST(EventCallback, MoveTransfersTargetAndEmptiesSource) {
  int hits = 0;
  EventCallback a{[&] { ++hits; }};
  EventCallback b{std::move(a)};
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(EventCallback, DestroysCaptureExactlyOnce) {
  cbtrack::reset_counters();
  {
    EventCallback cb{[t = cbtrack::Tracked{}] { (void)t; }};
    EventCallback moved{std::move(cb)};
    moved();
  }
  EXPECT_EQ(cbtrack::live, 0);
}

// --- event pool: recycling, lazy deletion, generation guard ---

TEST(EventQueue, PendingCallbacksDestroyedWithQueue) {
  cbtrack::reset_counters();
  {
    EventQueue q;
    for (int i = 0; i < 10; ++i) {
      q.push(i, [t = cbtrack::Tracked{}] { (void)t; });
    }
    q.fire_next([](SimTime) {});
  }
  EXPECT_EQ(cbtrack::live, 0);
}

TEST(EventQueue, CancelDestroysCaptureImmediately) {
  cbtrack::reset_counters();
  EventQueue q;
  const EventId id = q.push(10, [t = cbtrack::Tracked{}] { (void)t; });
  EXPECT_EQ(cbtrack::live, 1);
  const int before = cbtrack::destroyed;  // temporaries died during push
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(cbtrack::live, 0);
  EXPECT_EQ(cbtrack::destroyed, before + 1);
}

TEST(EventQueue, SelfCancelDuringFireFails) {
  EventQueue q;
  EventId self = kInvalidEventId;
  bool cancel_result = true;
  self = q.push(10, [&] { cancel_result = q.cancel(self); });
  q.fire_next([](SimTime) {});
  EXPECT_FALSE(cancel_result);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FireNextRunsPreHookBeforeCallback) {
  EventQueue q;
  std::vector<int> order;
  q.push(42, [&] { order.push_back(2); });
  const SimTime t = q.fire_next([&](SimTime committed) {
    EXPECT_EQ(committed, 42);
    order.push_back(1);
  });
  EXPECT_EQ(t, 42);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RecycledSlotHandleDoesNotAliasNewEvent) {
  EventQueue q;
  const EventId first = q.push(10, [] {});
  EXPECT_TRUE(q.cancel(first));
  // The replacement event reuses the pool slot; the dead handle must not
  // cancel it.
  bool ran = false;
  const EventId second = q.push(20, [&] { ran = true; });
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.size(), 1u);
  q.fire_next([](SimTime) {});
  EXPECT_TRUE(ran);
  EXPECT_FALSE(q.cancel(second));
}

TEST(EventQueue, PushCancelInterleaveStress) {
  // Random push/cancel/pop storm; the queue must keep exact live counts,
  // fire everything uncancelled exactly once, and never fire a cancelled
  // event. Mirrored against LegacyEventQueue below.
  Rng rng{20260806};
  EventQueue q;
  std::vector<EventId> open;
  SimTime now = 0;
  std::uint64_t fired = 0;
  std::uint64_t pushed = 0;
  std::uint64_t cancelled = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t roll = rng.uniform_u64(0, 99);
    if (roll < 50) {
      open.push_back(q.push(
          now + static_cast<SimTime>(rng.uniform_u64(0, 1000)), [&] { ++fired; }));
      ++pushed;
    } else if (roll < 75 && !open.empty()) {
      const std::size_t pick =
          rng.uniform_u64(0, static_cast<std::uint64_t>(open.size()) - 1);
      if (q.cancel(open[pick])) ++cancelled;
      open[pick] = open.back();
      open.pop_back();
    } else if (!q.empty()) {
      now = q.fire_next([](SimTime) {});
    }
  }
  while (!q.empty()) q.fire_next([](SimTime) {});
  EXPECT_EQ(fired + cancelled, pushed);
  EXPECT_EQ(q.total_pushed(), pushed);
}

TEST(EventQueue, MatchesLegacyQueueOnRandomOps) {
  // Differential check against the pre-pool implementation: identical op
  // sequences must produce the same pop order (by tag and time) and the
  // same digests.
  Rng rng{77};
  EventQueue neu;
  LegacyEventQueue old;
  std::vector<std::pair<EventId, EventId>> open;  // (new id, old id)
  std::vector<int> fired_new;
  std::vector<int> fired_old;
  SimTime now = 0;
  int tag = 0;
  for (int step = 0; step < 5000; ++step) {
    const std::uint64_t roll = rng.uniform_u64(0, 99);
    if (roll < 50) {
      const SimTime t = now + static_cast<SimTime>(rng.uniform_u64(0, 200));
      const int this_tag = tag++;
      open.emplace_back(neu.push(t, [&, this_tag] { fired_new.push_back(this_tag); }),
                        old.push(t, [&, this_tag] { fired_old.push_back(this_tag); }));
    } else if (roll < 70 && !open.empty()) {
      const std::size_t pick =
          rng.uniform_u64(0, static_cast<std::uint64_t>(open.size()) - 1);
      EXPECT_EQ(neu.cancel(open[pick].first), old.cancel(open[pick].second));
      open[pick] = open.back();
      open.pop_back();
    } else if (!neu.empty()) {
      ASSERT_FALSE(old.empty());
      auto popped_old = old.pop();
      const SimTime t = neu.fire_next([](SimTime) {});
      EXPECT_EQ(t, popped_old.t);
      popped_old.fn();
      now = t;
      ASSERT_EQ(fired_new.size(), fired_old.size());
      EXPECT_EQ(fired_new.back(), fired_old.back());
    }
    EXPECT_EQ(neu.size(), old.size());
    EXPECT_EQ(neu.next_time(), old.next_time());
  }
  EXPECT_EQ(fired_new, fired_old);
  StateDigest dn;
  neu.digest_state(dn);
  StateDigest dl;
  old.digest_state(dl);
  EXPECT_EQ(dn.value(), dl.value());
}

}  // namespace

// Friend peer for reaching into the pool's generation bookkeeping; the
// wraparound guard is unreachable through the public API (it needs 2^32
// occupancies of one slot).
struct EventQueueTestPeer {
  static constexpr std::uint32_t max_gen() { return EventQueue::kMaxGen; }
  static std::uint32_t slot_of(EventId id) { return EventQueue::slot_of(id); }
  static void set_free_slot_generation(EventQueue& q, std::uint32_t slot,
                                       std::uint32_t gen) {
    ASSERT_FALSE(static_cast<bool>(q.slot_ref(slot).callback))
        << "slot must be free";
    q.slot_ref(slot).gen = gen;
  }
  static std::uint64_t retired_slots(const EventQueue& q) {
    return q.retired_slots_;
  }
  static std::size_t far_heap_size(const EventQueue& q) {
    return q.far_keys_.size();
  }
  static std::size_t far_reserve() { return EventQueue::kFarReserve; }
};

namespace {

TEST(EventQueue, GenerationWraparoundRetiresSlot) {
  EventQueue q;
  const EventId first = q.push(10, [] {});
  EXPECT_TRUE(q.cancel(first));  // slot 0 is now free
  EventQueueTestPeer::set_free_slot_generation(
      q, 0, EventQueueTestPeer::max_gen() - 1);
  const EventId last = q.push(20, [] {});
  EXPECT_EQ(EventQueueTestPeer::slot_of(last), 0u);
  EXPECT_TRUE(q.cancel(last));  // generation hits kMaxGen: slot retires
  EXPECT_EQ(EventQueueTestPeer::retired_slots(q), 1u);
  // The retired slot never comes back, so the exhausted handle can never
  // alias a fresh event.
  const EventId next = q.push(30, [] {});
  EXPECT_NE(EventQueueTestPeer::slot_of(next), 0u);
  EXPECT_FALSE(q.cancel(last));
  EXPECT_TRUE(q.cancel(next));
}

// Regression: a cancelled event resident in the far heap used to stay behind
// as a tombstone until its 2^18-tick window rotated in, so a cancel-heavy
// far-timer workload (schedule a batch of far-future timeouts, cancel nearly
// all of them, repeat) retained heap entries unboundedly — before the
// compaction in EventQueue::cancel(), the occupancy below ends each round
// near 8 + 1024 * rounds instead of staying flat.
TEST(EventQueue, FarHeapCompactsTombstonesUnderCancelHeavyCancels) {
  EventQueue q;
  constexpr SimTime kFar = SimTime{1} << 20;  // beyond the 2^18 horizon
  std::vector<EventId> keep;
  for (SimTime i = 0; i < 8; ++i) keep.push_back(q.push(kFar + i, [] {}));
  std::size_t high_water = 0;
  for (int round = 0; round < 64; ++round) {
    std::vector<EventId> ids;
    for (int i = 0; i < 1024; ++i) {
      ids.push_back(q.push(kFar + 1000 + round * 1024 + i, [] {}));
    }
    for (EventId id : ids) ASSERT_TRUE(q.cancel(id));
    // Measured after each round's cancels: tombstones left since the last
    // compaction are bounded, so occupancy must not accumulate across rounds.
    high_water =
        std::max(high_water, EventQueueTestPeer::far_heap_size(q));
  }
  EXPECT_EQ(q.size(), keep.size());
  EXPECT_LE(high_water,
            2 * q.size() + 2 * EventQueueTestPeer::far_reserve());
  // Compaction preserves the (time, seq) pop order of the survivors.
  for (std::size_t i = 0; i < keep.size(); ++i) {
    EXPECT_EQ(q.fire_next([](SimTime) {}), kFar + static_cast<SimTime>(i));
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace inband
