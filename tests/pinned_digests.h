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
inline constexpr std::uint64_t kQuickRig = 0x7d476ee272952edeULL;

// perf_dataplane full rig: seed 2022, 3000 ms, 4 servers, 4 client hosts
// (tests/test_parallel.cc).
inline constexpr std::uint64_t kFullRig = 0x2b59918b2688ff5fULL;

// Combined digest of the reference sharded topology: 4 shards, 2 workers
// (tests/test_parallel.cc).
inline constexpr std::uint64_t kShardedCombined = 0x097340efaf882cb1ULL;

// ClusterRig::state_digest() of each law's bench/ablation_controllers
// --quick cell (800 ms, seed 2022, 3 servers) under the clean and the
// 1% loss/reorder fault plans (tests/test_controllers.cc).
struct AblationRigPins {
  ControllerKind kind;
  std::uint64_t clean;
  std::uint64_t noise;
};

inline constexpr AblationRigPins kAblationRigs[] = {
    {ControllerKind::kAlphaShift, 0x69a49afcdce17262ULL,
     0x4fabca541d4b0765ULL},
    {ControllerKind::kKnapsack, 0xc2a00962afb0b42dULL,
     0x3785a2899299873bULL},
    {ControllerKind::kGradientDescent, 0x820f1d0e0eb15c7aULL,
     0x5777dd63a549331dULL},
    {ControllerKind::kShortestQueue, 0x16459aa4bec58362ULL,
     0x345a229ec420a5abULL},
    {ControllerKind::kShortestQueueStale, 0x2bfc22e7cd2a7586ULL,
     0xdbe2541bc8b81cb7ULL},
};

}  // namespace inband::pins
