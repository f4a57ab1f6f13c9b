#include "core/controller_zoo.h"

#include "util/assert.h"

namespace inband {

std::unique_ptr<WeightController> make_controller(
    const ControllerZooConfig& config) {
  switch (config.controller_kind) {
    case ControllerKind::kAlphaShift:
      return std::make_unique<AlphaShiftController>(config.controller);
    case ControllerKind::kKnapsack:
      return std::make_unique<KnapsackLbController>(config.knapsack);
    case ControllerKind::kGradientDescent:
      return std::make_unique<GradientDescentController>(config.gradient);
    case ControllerKind::kShortestQueue: {
      ShortestQueueConfig sq = config.shortest_queue;
      sq.view_refresh = 0;  // the fresh kind, regardless of carried config
      return std::make_unique<ShortestQueueController>(sq);
    }
    case ControllerKind::kShortestQueueStale: {
      ShortestQueueConfig sq = config.shortest_queue;
      if (sq.view_refresh <= 0) sq.view_refresh = ms(20);
      return std::make_unique<ShortestQueueController>(sq);
    }
  }
  INBAND_ASSERT(false);
  return nullptr;
}

const std::vector<ControllerKind>& controller_registry() {
  static const std::vector<ControllerKind> kinds = {
      ControllerKind::kAlphaShift,          ControllerKind::kKnapsack,
      ControllerKind::kGradientDescent,     ControllerKind::kShortestQueue,
      ControllerKind::kShortestQueueStale,
  };
  return kinds;
}

}  // namespace inband
