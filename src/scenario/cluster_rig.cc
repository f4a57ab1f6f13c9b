#include "scenario/cluster_rig.h"

#include "check/state_digest.h"
#include "fault/server_faults.h"
#include "util/assert.h"
#include "util/logging.h"

namespace inband {

// Address helpers (rig_client_addr & co.) live in cluster_rig.h so the
// sharded rig can route into another shard's plan.

const char* lb_mode_name(LbMode mode) {
  switch (mode) {
    case LbMode::kStaticMaglev:
      return "maglev-static";
    case LbMode::kInband:
      return "inband-latency-aware";
    case LbMode::kRoundRobin:
      return "round-robin";
    case LbMode::kLeastConn:
      return "least-conn";
    case LbMode::kWeightedRandom:
      return "weighted-random";
  }
  return "?";
}

ClusterRig::ClusterRig(ClusterRigConfig config)
    : config_{std::move(config)}, net_{sim_} {
  INBAND_ASSERT(config_.num_servers >= 1);
  INBAND_ASSERT(config_.num_lbs >= 1);
  INBAND_ASSERT(config_.num_client_hosts >= 1);
  INBAND_ASSERT(config_.victim < config_.num_servers);
  INBAND_ASSERT(config_.addr_base >= 0 && config_.addr_base <= 62,
                "addr_base out of the 10.(4*base+k).0.x plan");
  const int base = config_.addr_base;

  // Servers.
  BackendPool pool;
  for (int s = 0; s < config_.num_servers; ++s) {
    auto host = std::make_unique<TcpHost>(sim_, net_, rig_server_addr(base, s),
                                          "server" + std::to_string(s),
                                          config_.tcp, config_.seed + 100 +
                                              static_cast<std::uint64_t>(s));
    KvServerConfig sc = config_.server;
    sc.seed = config_.seed + 200 + static_cast<std::uint64_t>(s);
    servers_.push_back(std::make_unique<KvServer>(*host, sc));
    pool.push_back({static_cast<BackendId>(s), "server" + std::to_string(s),
                    rig_server_addr(base, s), 1, true});
    server_hosts_.push_back(std::move(host));
  }

  // Load balancers.
  for (int l = 0; l < config_.num_lbs; ++l) {
    auto policy = make_policy(pool, l);
    auto* inband = dynamic_cast<InbandLbPolicy*>(policy.get());
    inband_policies_.push_back(inband);
    lbs_.push_back(std::make_unique<LoadBalancer>(
        sim_, net_, rig_vip_addr(base, l), "lb" + std::to_string(l), pool,
        std::move(policy)));
    for (int s = 0; s < config_.num_servers; ++s) {
      net_.add_link(rig_vip_addr(base, l), rig_server_addr(base, s),
                    {config_.bandwidth_bps, config_.lb_server_delay, 0});
    }
  }

  // Clients (assigned to LBs round-robin when there are several).
  for (int c = 0; c < config_.num_client_hosts; ++c) {
    auto host = std::make_unique<TcpHost>(sim_, net_, rig_client_addr(base, c),
                                          "client" + std::to_string(c),
                                          config_.tcp,
                                          config_.seed + 300 +
                                              static_cast<std::uint64_t>(c));
    const int lb_index = c % config_.num_lbs;
    const SimTime extra =
        static_cast<std::size_t>(c) < config_.client_extra_distance.size()
            ? config_.client_extra_distance[static_cast<std::size_t>(c)]
            : 0;
    net_.add_link(rig_client_addr(base, c), rig_vip_addr(base, lb_index),
                  {config_.bandwidth_bps, config_.client_lb_delay + extra, 0});
    for (int s = 0; s < config_.num_servers; ++s) {
      net_.add_link(
          rig_server_addr(base, s), rig_client_addr(base, c),
          {config_.bandwidth_bps, config_.server_client_delay + extra, 0});
    }
    KvClientConfig cc = config_.client;
    cc.server = Endpoint{rig_vip_addr(base, lb_index), config_.server.port};
    cc.seed = config_.seed + 400 + static_cast<std::uint64_t>(c);
    auto client = std::make_unique<KvClient>(*host, cc);
    client->set_recorder(
        [this](const RequestRecord& rec) { records_.push_back(rec); });
    clients_.push_back(std::move(client));
    client_hosts_.push_back(std::move(host));
  }

  // Fault layer over the full directed topology (client→VIP links indexed by
  // client, VIP→server and server→client links indexed by server).
  if (config_.fault.enabled()) {
    std::vector<FaultLayer::LinkRef> topo;
    for (int c = 0; c < config_.num_client_hosts; ++c) {
      topo.push_back({rig_client_addr(base, c),
                      rig_vip_addr(base, c % config_.num_lbs),
                      LinkScope::kClientToLb, c});
    }
    for (int l = 0; l < config_.num_lbs; ++l) {
      for (int s = 0; s < config_.num_servers; ++s) {
        topo.push_back({rig_vip_addr(base, l), rig_server_addr(base, s),
                        LinkScope::kLbToServer, s});
      }
    }
    for (int s = 0; s < config_.num_servers; ++s) {
      for (int c = 0; c < config_.num_client_hosts; ++c) {
        topo.push_back({rig_server_addr(base, s), rig_client_addr(base, c),
                        LinkScope::kServerToClient, s});
      }
    }
    fault_ = std::make_unique<FaultLayer>(sim_, net_, config_.fault,
                                          std::move(topo));
    std::vector<KvServer*> raw_servers;
    raw_servers.reserve(servers_.size());
    for (auto& s : servers_) raw_servers.push_back(s.get());
    apply_server_faults(config_.fault, sim_, *fault_, raw_servers);
  }

  if (config_.share_sample_interval > 0 && inband_policies_[0] != nullptr) {
    share_sampler_ = std::make_unique<PeriodicTask>(
        sim_, config_.share_sample_interval, [this](SimTime now) {
          share_history_.push_back(
              {now, inband_policies_[0]->table().shares()});
        });
  }

  // Audit hooks for every stateful subsystem. Registration is unconditional
  // (cheap, and lets tests run audits on demand in any build); the periodic
  // audit event in run() is what kAuditsEnabled gates.
  auditor_.register_hook("sim",
                         [this](AuditScope& s) { sim_.audit_invariants(s); });
  if (fault_) {
    auditor_.register_hook(
        "fault", [this](AuditScope& s) { fault_->audit_invariants(s); });
  }
  for (int l = 0; l < config_.num_lbs; ++l) {
    auditor_.register_hook(
        "lb" + std::to_string(l), [this, l](AuditScope& s) {
          lbs_[static_cast<std::size_t>(l)]->audit_invariants(s);
        });
  }
  for (int s = 0; s < config_.num_servers; ++s) {
    auditor_.register_hook(
        "server" + std::to_string(s) + "/tcp", [this, s](AuditScope& scope) {
          server_hosts_[static_cast<std::size_t>(s)]->stack().audit_invariants(
              scope);
        });
  }
  for (int c = 0; c < config_.num_client_hosts; ++c) {
    auditor_.register_hook(
        "client" + std::to_string(c) + "/tcp", [this, c](AuditScope& scope) {
          client_hosts_[static_cast<std::size_t>(c)]->stack().audit_invariants(
              scope);
        });
  }
}

ClusterRig::~ClusterRig() = default;

std::unique_ptr<RoutingPolicy> ClusterRig::make_policy(
    const BackendPool& pool, int lb_index) {
  switch (config_.mode) {
    case LbMode::kStaticMaglev:
      return std::make_unique<StaticMaglevPolicy>(pool,
                                                  config_.maglev_table_size);
    case LbMode::kInband: {
      InbandPolicyConfig ic = config_.inband;
      ic.maglev_table_size = config_.maglev_table_size;
      return std::make_unique<InbandLbPolicy>(pool, ic);
    }
    case LbMode::kRoundRobin:
      return std::make_unique<RoundRobinPolicy>(pool);
    case LbMode::kLeastConn:
      return std::make_unique<LeastConnPolicy>(pool);
    case LbMode::kWeightedRandom:
      return std::make_unique<WeightedRandomPolicy>(
          pool, config_.seed + 500 + static_cast<std::uint64_t>(lb_index));
  }
  return std::make_unique<StaticMaglevPolicy>(pool,
                                              config_.maglev_table_size);
}

void ClusterRig::run() {
  start();
  run_until(config_.duration);
  finish();
}

void ClusterRig::start() {
  INBAND_ASSERT(!started_, "ClusterRig::start() called twice");
  started_ = true;
  if (config_.reserve_records > 0) records_.reserve(config_.reserve_records);

  if (config_.inject_time < config_.duration && config_.inject_extra > 0) {
    sim_.schedule_at(config_.inject_time, [this] {
      const int base = config_.addr_base;
      for (int l = 0; l < config_.num_lbs; ++l) {
        net_.link(rig_vip_addr(base, l),
                  rig_server_addr(base, config_.victim))
            .set_extra_delay(config_.inject_extra);
      }
      LOG_INFO() << '[' << format_duration(sim_.now()) << "] injected "
                 << format_duration(config_.inject_extra)
                 << " on LB->server" << config_.victim << " paths";
    });
  }

  if (share_sampler_) share_sampler_->start(config_.share_sample_interval);
  if (kAuditsEnabled && config_.audit_interval > 0) {
    audit_task_ = std::make_unique<PeriodicTask>(
        sim_, config_.audit_interval,
        [this](SimTime now) { auditor_.run_all(now); });
    audit_task_->start(config_.audit_interval);
  }
  for (auto& c : clients_) c->start();
}

void ClusterRig::run_until(SimTime t) {
  INBAND_ASSERT(started_, "ClusterRig::run_until() before start()");
  sim_.run_until(t);
}

void ClusterRig::finish() {
  INBAND_ASSERT(started_, "ClusterRig::finish() before start()");
  for (auto& c : clients_) c->stop();
  if (audit_task_) {
    audit_task_->cancel();
    auditor_.run_all(sim_.now());  // final full audit at end of run
  }
}

std::vector<Sample> ClusterRig::get_latency_samples() const {
  std::vector<Sample> out;
  out.reserve(records_.size() / 2 + 1);
  for (const auto& r : records_) {
    if (r.op == KvOp::kGet) out.push_back({r.sent_at, r.latency});
  }
  return out;
}

InbandLbPolicy* ClusterRig::inband_policy(int i) {
  return inband_policies_[static_cast<std::size_t>(i)];
}

std::size_t ClusterRig::run_full_audit() {
  return auditor_.run_all(sim_.now());
}

void digest_records(StateDigest& d, const std::vector<RequestRecord>& recs) {
  d.mix(recs.size());
  for (const auto& r : recs) {
    d.mix_i64(r.sent_at);
    d.mix_i64(r.latency);
    d.mix_u32(static_cast<std::uint32_t>(r.op));
    d.mix_bool(r.hit);
    d.mix_u32(static_cast<std::uint32_t>(r.conn_index));
    d.mix(hash_flow(r.flow));
  }
}

std::uint64_t ClusterRig::state_digest() {
  StateDigest d;
  sim_.digest_state(d);
  if (fault_) fault_->digest_state(d);
  for (auto& lb : lbs_) lb->digest_state(d);
  for (auto& h : server_hosts_) h->stack().digest_state(d);
  for (auto& h : client_hosts_) h->stack().digest_state(d);
  digest_records(d, records_);
  d.mix(share_history_.size());
  for (const auto& snap : share_history_) {
    d.mix_i64(snap.t);
    for (const double v : snap.shares) d.mix_double(v);
  }
  return d.value();
}

}  // namespace inband
