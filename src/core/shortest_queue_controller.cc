#include "core/shortest_queue_controller.h"

#include <algorithm>

#include "check/state_digest.h"

namespace inband {

ShortestQueueController::ShortestQueueController(ShortestQueueConfig config)
    : EpochWeightLaw{config}, config_{config} {}

const std::vector<BackendScore>* ShortestQueueController::score_view(
    ServerLatencyTracker& tracker, SimTime now, ScoreScan& scan) {
  // Refresh the operative view — every epoch for the fresh variant, only
  // every `view_refresh` for the stale one. A refresh demands a complete
  // fresh opinion set; without one, both variants keep steering by the last
  // complete view (for the stale variant, that is the point).
  const bool want_refresh =
      config_.view_refresh == 0 || view_taken_ == kNoTime ||
      now - view_taken_ >= config_.view_refresh;
  if (want_refresh) {
    ScoreScan fresh;
    if (const auto* scores = EpochWeightLaw::score_view(tracker, now, fresh)) {
      view_ = *scores;
      view_scan_ = fresh;
      view_taken_ = now;
    }
  }
  if (view_.size() != tracker.backend_count()) return nullptr;
  scan = view_scan_;
  return &view_;
}

void ShortestQueueController::weigh(const std::vector<BackendScore>& view,
                                    const std::vector<double>& weights,
                                    double floor, std::vector<double>& next) {
  (void)weights;
  next.assign(view.size(), 0.0);
  for (const auto& s : view) {
    next[s.backend] = 1.0 / std::max(s.score_ns, 1.0);
  }
  floor_and_normalize(next, floor);
}

void ShortestQueueController::digest_law(StateDigest& digest) const {
  digest.mix_i64(view_taken_);
  digest.mix(view_.size());
  for (const auto& s : view_) {
    digest.mix_u32(s.backend);
    digest.mix_double(s.score_ns);
  }
}

}  // namespace inband
