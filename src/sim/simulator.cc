#include "sim/simulator.h"

#include "check/invariant_auditor.h"
#include "check/state_digest.h"
#include "util/assert.h"

namespace inband {

bool Simulator::step() {
  if (queue_.empty()) return false;
  // fire_next invokes the handler in its pool slot; the pre-hook commits the
  // clock before the handler runs so handlers observe now() == their time.
  queue_.fire_next([this](SimTime t) {
    INBAND_DCHECK(t >= now_);
    now_ = t;
  });
  ++executed_;
  return true;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Simulator::run_until(SimTime deadline) {
  stopped_ = false;
  while (!stopped_) {
    const SimTime next = queue_.next_time();
    if (next == kNoTime || next > deadline) break;
    step();
  }
  if (!stopped_ && now_ < deadline) now_ = deadline;
}

void Simulator::audit_invariants(AuditScope& scope) {
  scope.check(now_ >= 0, "clock-nonnegative");
  const SimTime next = queue_.next_time();
  if (next != kNoTime) {
    scope.check(next >= now_, "no-event-in-the-past",
                "live event scheduled before now()");
  }
  queue_.audit_invariants(scope);
}

void Simulator::digest_state(StateDigest& digest) {
  digest.mix_i64(now_);
  digest.mix(executed_);
  queue_.digest_state(digest);
}

PeriodicTask::PeriodicTask(Simulator& sim, SimTime period,
                           std::function<void(SimTime)> fn)
    : sim_{sim}, period_{period}, fn_{std::move(fn)} {
  INBAND_ASSERT(period_ > 0);
  INBAND_ASSERT(fn_ != nullptr);
}

PeriodicTask::~PeriodicTask() { cancel(); }

void PeriodicTask::start(SimTime first_delay) {
  INBAND_ASSERT(!active(), "start() on a running PeriodicTask");
  event_ = sim_.schedule_after(first_delay, [this] { fire(); });
}

void PeriodicTask::cancel() {
  if (event_ != kInvalidEventId) {
    sim_.cancel(event_);
    event_ = kInvalidEventId;
  }
}

void PeriodicTask::fire() {
  // Reschedule before the callback so the callback may cancel us.
  event_ = sim_.schedule_after(period_, [this] { fire(); });
  fn_(sim_.now());
}

}  // namespace inband
