#include "core/gradient_controller.h"

#include <algorithm>
#include <cmath>

#include "check/state_digest.h"
#include "util/assert.h"

namespace inband {

GradientDescentController::GradientDescentController(
    GradientDescentConfig config)
    : EpochWeightLaw{config}, config_{config} {
  INBAND_ASSERT(config_.step > 0.0);
}

void GradientDescentController::weigh(const std::vector<BackendScore>& view,
                                      const std::vector<double>& weights,
                                      double floor, std::vector<double>& next) {
  const std::size_t n = view.size();
  if (epochs_.size() != n) epochs_.assign(n, 0);

  // Weighted mean latency under the *current* weights — the gradient's
  // reference point — and a scale to make the step size unitless.
  double mean = 0.0;
  double wsum = 0.0;
  for (const auto& s : view) {
    mean += weights[s.backend] * s.score_ns;
    wsum += weights[s.backend];
  }
  if (wsum > 1e-9) {
    mean /= wsum;
  } else {
    mean = 0.0;
    for (const auto& s : view) mean += s.score_ns;
    mean /= static_cast<double>(n);
  }
  const double scale = std::max(mean, 1.0);

  next.assign(n, 0.0);
  for (const auto& s : view) {
    const double g = (s.score_ns - mean) / scale;
    const std::uint64_t decay_epochs =
        std::min(epochs_[s.backend], kMaxDecayEpochs);
    const double eta =
        config_.decay_step
            ? config_.step / std::sqrt(1.0 + static_cast<double>(decay_epochs))
            : config_.step;
    next[s.backend] = weights[s.backend] - eta * g;
    ++epochs_[s.backend];
  }

  // Project back onto the simplex above the floor, so no healthy backend
  // starves.
  for (double& w : next) w -= floor;
  project_to_simplex(next, 1.0 - static_cast<double>(n) * floor, scratch_);
  for (double& w : next) w += floor;
}

std::uint64_t GradientDescentController::epochs_seen(BackendId backend) const {
  return backend < epochs_.size() ? epochs_[backend] : 0;
}

void GradientDescentController::digest_law(StateDigest& digest) const {
  digest.mix(epochs_.size());
  for (const std::uint64_t e : epochs_) digest.mix(e);
}

}  // namespace inband
