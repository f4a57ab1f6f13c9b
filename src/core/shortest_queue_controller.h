// Shortest-queue-style proportional weighting, with an optional stale-view
// variant.
//
// The classic baseline the source paper argues against sizing by: send
// traffic in proportion to how "short" each server currently looks. Here a
// server's queue proxy is its in-band latency score, so the law is
//
//   w_i  ~  1 / max(score_i, 1ns)
//
// renormalized over the healthy set (floored, so nobody starves): plain
// inverse-latency proportionality.
//
// The stale-info variant (`view_refresh > 0`) recomputes from a *snapshot*
// of the scores that only refreshes every `view_refresh`: between refreshes
// the law keeps steering by the old view, reproducing the stale-control-state
// herding that motivates in-band feedback in the first place (the "fast
// in-band signal vs slow out-of-band collection" contrast of PAPER.md §3).
#pragma once

#include <cstdint>
#include <vector>

#include "core/weight_controller.h"
#include "util/shard.h"

namespace inband {

struct ShortestQueueConfig : EpochLawConfig {
  ShortestQueueConfig() { min_samples = 1; }
  SimTime view_refresh = 0;  // 0: always-fresh view; >0: stale-info variant
};

INBAND_SHARD_LOCAL(lb)
class ShortestQueueController final : public EpochWeightLaw {
 public:
  explicit ShortestQueueController(ShortestQueueConfig config = {});

  const char* name() const override {
    return config_.view_refresh > 0 ? "shortest-queue-stale"
                                    : "shortest-queue";
  }

  const ShortestQueueConfig& config() const { return config_; }
  // Age of the score view the last decision was computed from (0 for the
  // fresh variant). Introspection for tests.
  SimTime view_age(SimTime now) const {
    return view_taken_ == kNoTime ? 0 : now - view_taken_;
  }

 private:
  const std::vector<BackendScore>* score_view(ServerLatencyTracker& tracker,
                                              SimTime now,
                                              ScoreScan& scan) override;
  void weigh(const std::vector<BackendScore>& view,
             const std::vector<double>& weights, double floor,
             std::vector<double>& next) override;
  void digest_law(StateDigest& digest) const override;

  ShortestQueueConfig config_;
  std::vector<BackendScore> view_;  // the operative snapshot
  ScoreScan view_scan_;             // view_'s scan, taken with it
  SimTime view_taken_ = kNoTime;
};

}  // namespace inband
