// Discrete-event simulator: clock + scheduler.
//
// Single-threaded by design: every model in this repository is driven from
// the one event loop, which is what makes runs bit-reproducible. Handlers may
// schedule and cancel further events freely (including at the current time;
// such events run after the current handler returns, in FIFO order).
#pragma once

#include <cstdint>
#include <functional>

#include "sim/event_queue.h"
#include "util/assert.h"
#include "util/hotpath.h"
#include "util/shard.h"
#include "util/time.h"

namespace inband {

INBAND_SHARD_LOCAL(owner)
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedules fn at absolute time t (>= now). Accepts any nullary callable;
  // the callback is stored erased in the event pool, without the per-event
  // heap allocation a std::function parameter would force.
  template <typename F>
  EventId schedule_at(SimTime t, F&& fn) {
    INBAND_ASSERT(t >= now_, "scheduling into the past");
    return queue_.push(t, std::forward<F>(fn));
  }

  // Schedules fn `delay` after now (delay >= 0).
  template <typename F>
  EventId schedule_after(SimTime delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  bool cancel(EventId id) { return queue_.cancel(id); }

  // Runs until the queue drains or stop() is called.
  void run();

  // Runs events with time <= deadline; afterwards now() == max(now, deadline)
  // unless stop() fired earlier.
  void run_until(SimTime deadline);

  // Executes exactly one event if any; returns false when the queue is empty.
  INBAND_HOT bool step();

  // Absolute time of the earliest pending event; kNoTime when none. Non-const
  // because inspecting the head may advance the wheel cursor.
  SimTime next_event_time() { return queue_.next_time(); }

  // Commits the clock to t (>= now) without running anything. The parallel
  // driver uses this to advance to a cross-shard delivery time or to the run
  // end; the caller guarantees no pending event lies in (now, t).
  void advance_to(SimTime t) {
    INBAND_ASSERT(t >= now_, "advancing the clock into the past");
    INBAND_DCHECK(queue_.next_time() == kNoTime || queue_.next_time() >= t,
                  "advance_to would skip a pending event");
    now_ = t;
  }

  // Makes run()/run_until() return after the current handler completes.
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t executed_events() const { return executed_; }
  // Events ever scheduled, cancelled ones included.
  std::uint64_t scheduled_events() const { return queue_.total_pushed(); }

  // Invariant audit: clock sanity plus the event queue's own invariants
  // (no live event scheduled in the simulator's past).
  void audit_invariants(AuditScope& scope);

  // Folds clock/scheduler state into a determinism digest.
  void digest_state(StateDigest& digest);

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
};

// Repeating task helper: reschedules itself every `period` until cancelled
// or its owner is destroyed. The callback receives the firing time.
INBAND_SHARD_LOCAL(owner)
class PeriodicTask {
 public:
  PeriodicTask(Simulator& sim, SimTime period,
               std::function<void(SimTime)> fn);
  ~PeriodicTask();
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void start(SimTime first_delay);
  void cancel();
  bool active() const { return event_ != kInvalidEventId; }

 private:
  void fire();

  Simulator& sim_;
  SimTime period_;
  std::function<void(SimTime)> fn_;
  EventId event_ = kInvalidEventId;
};

}  // namespace inband
