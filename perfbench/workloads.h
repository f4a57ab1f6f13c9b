// The benchmark's workloads as library configurations.
#pragma once

#include <cstdint>
#include <string>

#include "scenario/cluster_rig.h"
#include "scenario/sharded_rig.h"

namespace perfbench {

enum class Workload { kFig3, kChurnNoise, kSharded };

// False for an unknown name.
bool parse_workload(const std::string& name, Workload* out);

// The latency-aware half of bench/fig3_latency_aware_vs_maglev at its
// defaults: 8 s simulated, +1 ms on LB->server0 at half time.
inband::ClusterRigConfig fig3_config(std::uint64_t seed);

// Short churning flows over a noisy network: 16 servers, 4 client hosts x
// 16 connections x pipeline 1, 2 requests per connection, 1% loss, 1%
// reorder and 20 us jitter on every link, 8 s simulated, no delay injection.
inband::ClusterRigConfig churn_noise_config(std::uint64_t seed);

// The bench/parallel_rig ring: 8 shards of 2 servers, 2 client hosts and one
// remote client each, 200 us trunks, 1 s simulated, no delay injection.
inband::ShardedRigConfig sharded_config(std::uint64_t seed, int workers);

}  // namespace perfbench
