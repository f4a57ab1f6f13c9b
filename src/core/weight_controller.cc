#include "core/weight_controller.h"

#include <algorithm>
#include <cmath>

#include "check/state_digest.h"
#include "util/assert.h"

namespace inband {

const char* controller_kind_name(ControllerKind kind) {
  switch (kind) {
    case ControllerKind::kAlphaShift:
      return "alpha-shift";
    case ControllerKind::kKnapsack:
      return "knapsack";
    case ControllerKind::kGradientDescent:
      return "gradient";
    case ControllerKind::kShortestQueue:
      return "shortest-queue";
    case ControllerKind::kShortestQueueStale:
      return "shortest-queue-stale";
  }
  return "?";
}

std::optional<ControllerKind> controller_kind_from_name(std::string_view name) {
  if (name == "alpha-shift" || name == "alpha") {
    return ControllerKind::kAlphaShift;
  }
  if (name == "knapsack") return ControllerKind::kKnapsack;
  if (name == "gradient" || name == "gradient-descent") {
    return ControllerKind::kGradientDescent;
  }
  if (name == "shortest-queue" || name == "sq") {
    return ControllerKind::kShortestQueue;
  }
  if (name == "shortest-queue-stale" || name == "sq-stale") {
    return ControllerKind::kShortestQueueStale;
  }
  return std::nullopt;
}

void WeightController::digest_state(StateDigest& digest) const {
  digest.mix(updates_);
  digest.mix_i64(last_update_);
}

ScoreScan WeightController::scan_scores(ServerLatencyTracker& tracker,
                                        SimTime now,
                                        std::uint64_t min_samples,
                                        SimTime staleness) {
  tracker.scores_into(now, scores_);
  ScoreScan scan;
  for (std::size_t i = 0; i < scores_.size(); ++i) {
    const BackendScore& s = scores_[i];
    if (s.samples < min_samples) continue;
    if (now - s.last_sample > staleness) continue;
    if (scan.eligible == 0 || s.score_ns > scores_[scan.worst].score_ns) {
      scan.worst = i;
    }
    if (scan.eligible == 0 || s.score_ns < scores_[scan.best].score_ns) {
      scan.best = i;
    }
    ++scan.eligible;
  }
  scan.complete = scan.eligible == tracker.backend_count();
  return scan;
}

WeightDecision WeightController::emit_decision(
    SimTime now, const BackendScore& worst, const BackendScore& best,
    double fraction, const std::vector<double>* weights) {
  ++updates_;
  last_update_ = now;
  return WeightDecision{worst.backend, fraction, weights, worst.score_ns,
                        best.score_ns};
}

EpochWeightLaw::EpochWeightLaw(const EpochLawConfig& config)
    : config_{config} {
  INBAND_ASSERT(config_.epoch > 0);
  INBAND_ASSERT(config_.deadband >= 0.0);
}

std::optional<WeightDecision> EpochWeightLaw::control_step(
    ServerLatencyTracker& tracker, const std::vector<double>& weights,
    SimTime now) {
  if (now < config_.warmup) return std::nullopt;
  if (last_eval_ != kNoTime && now - last_eval_ < config_.epoch) {
    return std::nullopt;
  }
  INBAND_COLD_OK(
      "epoch-rate weight solve: runs once per epoch, the per-sample path "
      "exits above");
  last_eval_ = now;

  const std::size_t n = tracker.backend_count();
  if (n < 2 || weights.size() != n) return std::nullopt;
  ScoreScan scan;
  const std::vector<BackendScore>* view = score_view(tracker, now, scan);
  if (view == nullptr) return std::nullopt;

  // The floor keeps every backend sampled once the law is in charge, which
  // is what keeps the next epoch's view complete.
  constexpr double kMinWeight = 0.02;
  const double nd = static_cast<double>(n);
  const double floor = std::min(kMinWeight, 1.0 / (2.0 * nd));
  weigh(*view, weights, floor, next_);
  if (weight_l1_distance(next_, weights) < config_.deadband) {
    return std::nullopt;
  }
  return emit_decision(now, (*view)[scan.worst], (*view)[scan.best], 0.0,
                       &next_);
}

const std::vector<BackendScore>* EpochWeightLaw::score_view(
    ServerLatencyTracker& tracker, SimTime now, ScoreScan& scan) {
  // Acting on a partial view would starve whoever is quiet this epoch.
  scan = scan_scores(tracker, now, config_.min_samples, config_.staleness);
  return scan.complete ? &scores() : nullptr;
}

void EpochWeightLaw::digest_state(StateDigest& digest) const {
  WeightController::digest_state(digest);
  digest.mix_i64(last_eval_);
  digest_law(digest);
  digest.mix(next_.size());
  for (const double w : next_) digest.mix_double(w);
}

void floor_and_normalize(std::vector<double>& w, double floor) {
  const std::size_t n = w.size();
  if (n == 0) return;
  const double nd = static_cast<double>(n);
  const double f = std::clamp(floor, 0.0, 1.0 / (2.0 * nd));
  // Scale-invariance: callers pass raw scores (e.g. inverse latencies) whose
  // magnitude carries no meaning; bring them onto the simplex before the
  // floor is applied so the floor compares against *shares*, not raw units.
  double total = 0.0;
  for (const double v : w) total += std::max(0.0, v);
  if (total > 0.0) {
    for (double& v : w) v = std::max(0.0, v) / total;
  }
  double surplus_sum = 0.0;
  for (double& v : w) {
    v = std::max(0.0, v - f);
    surplus_sum += v;
  }
  const double budget = 1.0 - nd * f;
  if (surplus_sum <= 0.0) {
    for (double& v : w) v = 1.0 / nd;
    return;
  }
  for (double& v : w) v = f + budget * (v / surplus_sum);
}

void project_to_simplex(std::vector<double>& w, double mass,
                        std::vector<double>& scratch) {
  const std::size_t n = w.size();
  INBAND_ASSERT(mass > 0.0);
  if (n == 0) return;
  // Sort a copy descending; find the largest rho with
  // u_rho - (cum_rho - mass)/rho > 0, then clip at that threshold.
  scratch = w;
  std::sort(scratch.begin(), scratch.end(), std::greater<double>{});
  double cum = 0.0;
  double tau = 0.0;
  std::size_t rho = 0;
  for (std::size_t j = 0; j < n; ++j) {
    cum += scratch[j];
    const double t = (cum - mass) / static_cast<double>(j + 1);
    if (scratch[j] - t > 0.0) {
      rho = j + 1;
      tau = t;
    }
  }
  INBAND_ASSERT(rho > 0);
  for (double& v : w) v = std::max(0.0, v - tau);
}

double weight_l1_distance(const std::vector<double>& a,
                          const std::vector<double>& b) {
  double d = 0.0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) d += std::abs(a[i] - b[i]);
  for (std::size_t i = n; i < a.size(); ++i) d += std::abs(a[i]);
  for (std::size_t i = n; i < b.size(); ++i) d += std::abs(b[i]);
  return d;
}

}  // namespace inband
