// Controller zoo: one factory for every registered WeightController.
//
// Kept separate from weight_controller.h (the interface) so concrete
// controller headers can include the interface without a cycle. The zoo is
// the single registration point: the conformance suite in
// tests/test_controllers.cc iterates `controller_registry()`, so a controller
// added here is automatically held to the shared laws (normalization,
// determinism, no starvation).
#pragma once

#include <memory>
#include <vector>

#include "core/alpha_shift_controller.h"
#include "core/gradient_controller.h"
#include "core/knapsack_controller.h"
#include "core/shortest_queue_controller.h"
#include "core/weight_controller.h"

namespace inband {

// Which control law closes the loop, plus each law's config, carried
// together so rigs/benches/CLIs plumb one struct (InbandPolicyConfig extends
// it). Only the config matching `controller_kind` is consulted by
// make_controller. `controller` is the α-shift config; it keeps its name
// from the alpha-only era so existing config sites read unchanged.
struct ControllerZooConfig {
  ControllerKind controller_kind = ControllerKind::kAlphaShift;
  AlphaShiftConfig controller;
  KnapsackLbConfig knapsack;
  GradientDescentConfig gradient;
  ShortestQueueConfig shortest_queue;
};

// Builds the controller selected by `config.controller_kind`. The stale
// shortest-queue kind reuses ShortestQueueConfig with view_refresh forced
// positive.
std::unique_ptr<WeightController> make_controller(
    const ControllerZooConfig& config);

// Every kind the zoo can build, in stable declaration order. The conformance
// suite treats this as the source of truth for "all registered controllers".
const std::vector<ControllerKind>& controller_registry();

}  // namespace inband
