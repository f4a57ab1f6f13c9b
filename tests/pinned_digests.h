// Rig-level determinism pins: the one place the suite's whole-rig state
// digests are written down.
//
// Each constant is the digest of a complete, seeded simulation run, so a
// change anywhere in the simulated behaviour moves it. When a change moves
// them on purpose, re-pin here once and list every old -> new value with
// the reason in CHANGES.md. The same values appear as strings in
// BENCH_dataplane.json (rig_digest, full rig) and
// .perf_baseline/dataplane_quick.json (rig_digest, quick rig).
#pragma once

#include <cstdint>

#include "core/controller_zoo.h"

namespace inband::pins {

// perf_dataplane --quick rig: seed 2022, 400 ms, 2 servers, 2 client hosts
// (tests/test_core.cc, tests/test_parallel.cc).
inline constexpr std::uint64_t kQuickRig = 0xca1badad4375eae1ULL;

// perf_dataplane full rig: seed 2022, 3000 ms, 4 servers, 4 client hosts
// (tests/test_parallel.cc).
inline constexpr std::uint64_t kFullRig = 0xd63121f92654ff60ULL;

// Combined digest of the reference sharded topology: 4 shards, 2 workers
// (tests/test_parallel.cc).
inline constexpr std::uint64_t kShardedCombined = 0x4102561038bbf16aULL;

// ClusterRig::state_digest() of each law's bench/ablation_controllers
// --quick cell (800 ms, seed 2022, 3 servers) under the clean and the
// 1% loss/reorder fault plans (tests/test_controllers.cc).
struct AblationRigPins {
  ControllerKind kind;
  std::uint64_t clean;
  std::uint64_t noise;
};

inline constexpr AblationRigPins kAblationRigs[] = {
    {ControllerKind::kAlphaShift, 0xf268e10e48bbe6c6ULL,
     0xdaa3d7a54d341e40ULL},
    {ControllerKind::kKnapsack, 0x00a02f7eff522392ULL,
     0x77f640ae61db2f4aULL},
    {ControllerKind::kGradientDescent, 0x06adecfa31f4fc55ULL,
     0x14eefe55733d9c5dULL},
    {ControllerKind::kShortestQueue, 0x0eb60a321f4b7a35ULL,
     0x6d3b990d78c9d8faULL},
    {ControllerKind::kShortestQueueStale, 0xfb134e854dece847ULL,
     0x2432af79478cf31cULL},
};

}  // namespace inband::pins
