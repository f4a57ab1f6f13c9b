#include "workloads.h"

#include "fault/fault_plan.h"

namespace perfbench {

using namespace inband;

bool parse_workload(const std::string& name, Workload* out) {
  if (name == "fig3") {
    *out = Workload::kFig3;
  } else if (name == "churn_noise") {
    *out = Workload::kChurnNoise;
  } else if (name == "sharded") {
    *out = Workload::kSharded;
  } else {
    return false;
  }
  return true;
}

ClusterRigConfig fig3_config(std::uint64_t seed) {
  // Field for field bench/fig3_latency_aware_vs_maglev's base_config(8, 1,
  // seed) in kInband mode. The periodic audit only runs in audit-enabled
  // builds; it is off here so the traced composition need not replicate it.
  ClusterRigConfig cfg;
  cfg.mode = LbMode::kInband;
  cfg.num_servers = 2;
  cfg.num_client_hosts = 2;
  cfg.duration = sec(8);
  cfg.inject_time = cfg.duration / 2;
  cfg.inject_extra = ms(1);
  cfg.victim = 0;
  cfg.client.connections = 4;
  cfg.client.pipeline = 4;
  cfg.client.requests_per_conn = 50;
  cfg.server.workers = 8;
  cfg.seed = seed;
  cfg.inband.ensemble.epoch = ms(16);
  cfg.inband.controller.cooldown = ms(1);
  cfg.inband.controller.min_samples = 3;
  cfg.share_sample_interval = ms(1);
  cfg.audit_interval = 0;
  return cfg;
}

ClusterRigConfig churn_noise_config(std::uint64_t seed) {
  ClusterRigConfig cfg;
  cfg.mode = LbMode::kInband;
  cfg.num_servers = 16;
  cfg.num_client_hosts = 4;
  cfg.duration = sec(8);
  cfg.inject_extra = 0;  // no delay injection
  cfg.client.connections = 16;
  cfg.client.pipeline = 1;
  cfg.client.requests_per_conn = 2;
  cfg.fault = make_noise_plan(0.01, 0.01, 0.0, us(20));
  cfg.seed = seed;
  cfg.audit_interval = 0;
  return cfg;
}

ShardedRigConfig sharded_config(std::uint64_t seed, int workers) {
  // bench/parallel_rig's sweep_config at its defaults.
  ShardedRigConfig cfg;
  cfg.num_shards = 8;
  cfg.workers = workers;
  cfg.shard.mode = LbMode::kInband;
  cfg.shard.num_servers = 2;
  cfg.shard.num_client_hosts = 2;
  cfg.shard.duration = sec(1);
  // No delay injection (parallel_rig injects +1 ms at half time): in 2 of
  // 10 seeds one shard's controller then moved traffic, which changed the
  // share of delayed GETs from 13% to 8.5% and made every latency percentile
  // above the median bimodal across seeds. This workload is about the
  // runner, not the controller.
  cfg.shard.inject_extra = 0;
  cfg.shard.seed = seed;
  cfg.shard.client.connections = 4;
  cfg.shard.client.pipeline = 4;
  cfg.shard.server.workers = 8;
  cfg.shard.share_sample_interval = ms(10);
  cfg.shard.audit_interval = 0;
  cfg.cross_latency = us(200);
  cfg.remote_clients_per_shard = 1;
  cfg.remote_client.connections = 2;
  cfg.remote_client.pipeline = 2;
  cfg.remote_client.requests_per_conn = 50;
  return cfg;
}

}  // namespace perfbench
