#include "core/alpha_shift_controller.h"

#include "check/state_digest.h"
#include "util/assert.h"

namespace inband {

AlphaShiftController::AlphaShiftController(AlphaShiftConfig config)
    : config_{config}, baseline_best_{config.guard_tau} {
  INBAND_ASSERT(config_.alpha > 0.0 && config_.alpha <= 1.0);
  INBAND_ASSERT(config_.rel_threshold >= 1.0);
  INBAND_ASSERT(config_.cooldown >= 0);
  // detlint:allow(float-eq): 0.0 is the explicit "guard disabled" sentinel, assigned only from the same literal
  INBAND_ASSERT(config_.global_guard == 0.0 || config_.global_guard >= 1.0);
}

std::optional<WeightDecision> AlphaShiftController::control_step(
    ServerLatencyTracker& tracker, const std::vector<double>& weights,
    SimTime now) {
  (void)weights;
  if (now < config_.warmup) return std::nullopt;
  const SimTime last_shift = last_shift_time();
  if (last_shift != kNoTime && now - last_shift < config_.cooldown) {
    return std::nullopt;
  }

  // Shifting needs a comparison: at least two live opinions.
  const ScoreScan scan =
      scan_scores(tracker, now, config_.min_samples, config_.staleness);
  if (scan.eligible < 2) return std::nullopt;
  const BackendScore& worst = scores()[scan.worst];
  const BackendScore& best = scores()[scan.best];
  if (worst.backend == best.backend) return std::nullopt;

  // Global-inflation guard: compare the best score against its trailing
  // baseline *before* folding the new level in, so an abrupt shared fault
  // is caught; the EWMA then absorbs persistent levels and re-arms control.
  if (config_.global_guard > 0.0) {
    const bool inflated =
        baseline_best_.initialized() &&
        best.score_ns > config_.global_guard * baseline_best_.value();
    baseline_best_.record(now, best.score_ns);
    if (inflated) {
      ++guard_holds_;
      pending_from_ = kNoBackend;  // a shared event voids any candidate
      return std::nullopt;
    }
  }

  const double gap = worst.score_ns - best.score_ns;
  if (gap < static_cast<double>(config_.min_abs_gap) ||
      worst.score_ns < config_.rel_threshold * best.score_ns) {
    pending_from_ = kNoBackend;  // gap evaporated: candidate withdrawn
    return std::nullopt;
  }

  if (config_.confirm > 0) {
    if (pending_from_ != worst.backend) {
      pending_from_ = worst.backend;
      pending_since_ = now;
      return std::nullopt;
    }
    if (now - pending_since_ < config_.confirm) return std::nullopt;
  }

  pending_from_ = kNoBackend;
  return emit_decision(now, worst, best, config_.alpha, nullptr);
}

void AlphaShiftController::digest_state(StateDigest& digest) const {
  WeightController::digest_state(digest);
  digest.mix(guard_holds_);
  digest.mix_u32(pending_from_);
  digest.mix_i64(pending_since_);
  digest.mix_bool(baseline_best_.initialized());
  digest.mix_double(baseline_best_.value());
}

}  // namespace inband
