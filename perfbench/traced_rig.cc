#include "traced_rig.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "check/state_digest.h"
#include "fault/server_faults.h"
#include "util/assert.h"

namespace perfbench {

using namespace inband;

std::int64_t host_now_ns() {
  // detlint:allow(wall-clock): the benchmark measures host time; nothing simulated reads it
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

class TimedTcpHost final : public TcpHost {
 public:
  TimedTcpHost(SpanLedger& ledger, Layer layer, Simulator& sim, Network& net,
               Ipv4 addr, std::string name, TcpConfig config,
               std::uint64_t seed)
      : TcpHost(sim, net, addr, std::move(name), config, seed),
        ledger_{ledger},
        layer_{layer} {}

  void handle_batch(PacketBatch&& batch) override {
    const std::uint32_t n = batch.size();
    ledger_.begin(layer_, host_now_ns());
    TcpHost::handle_batch(std::move(batch));
    ledger_.end(host_now_ns(), n);
  }

 private:
  SpanLedger& ledger_;
  Layer layer_;
};

class TimedLoadBalancer final : public LoadBalancer {
 public:
  TimedLoadBalancer(SpanLedger& ledger, Simulator& sim, Network& net, Ipv4 vip,
                    std::string name, BackendPool pool,
                    std::unique_ptr<RoutingPolicy> policy)
      : LoadBalancer(sim, net, vip, std::move(name), std::move(pool),
                     std::move(policy)),
        ledger_{ledger} {}

  void handle_batch(PacketBatch&& batch) override {
    const std::uint32_t n = batch.size();
    ledger_.begin(Layer::kLb, host_now_ns());
    LoadBalancer::handle_batch(std::move(batch));
    ledger_.end(host_now_ns(), n);
  }

 private:
  SpanLedger& ledger_;
};

// Forwards every RoutingPolicy virtual to the in-band policy, timing the two
// per-packet ones.
class TimedPolicy final : public RoutingPolicy {
 public:
  TimedPolicy(SpanLedger& ledger, std::unique_ptr<InbandLbPolicy> inner)
      : ledger_{ledger}, inner_{std::move(inner)} {}

  InbandLbPolicy& inner() { return *inner_; }

  std::string name() const override { return inner_->name(); }
  BackendId pick(const FlowKey& flow, SimTime now) override {
    ledger_.begin(Layer::kCorePick, host_now_ns());
    const BackendId b = inner_->pick(flow, now);
    ledger_.end(host_now_ns());
    return b;
  }
  void on_packet(const Packet& pkt, BackendId backend, SimTime now,
                 bool new_flow) override {
    ledger_.begin(Layer::kCoreOnPacket, host_now_ns());
    inner_->on_packet(pkt, backend, now, new_flow);
    ledger_.end(host_now_ns());
  }
  void on_flow_closed(const FlowKey& flow, BackendId backend,
                      SimTime now) override {
    inner_->on_flow_closed(flow, backend, now);
  }
  void on_pool_change(const BackendPool& pool) override {
    inner_->on_pool_change(pool);
  }
  void audit_invariants(AuditScope& scope) const override {
    inner_->audit_invariants(scope);
  }
  void digest_state(StateDigest& digest) const override {
    inner_->digest_state(digest);
  }

 private:
  SpanLedger& ledger_;
  std::unique_ptr<InbandLbPolicy> inner_;
};

class TimedInterceptor final : public SendInterceptor {
 public:
  TimedInterceptor(SpanLedger& ledger, FaultLayer& inner)
      : ledger_{ledger}, inner_{inner} {}

  SendVerdict on_send(const Packet& pkt, Ipv4 from, Ipv4 to) override {
    ledger_.begin(Layer::kFault, host_now_ns());
    const SendVerdict v = inner_.on_send(pkt, from, to);
    ledger_.end(host_now_ns());
    return v;
  }
  void on_send_batch(const PacketBatch& batch, Ipv4 from, Ipv4 to,
                     BatchVerdict& out) override {
    ledger_.begin(Layer::kFault, host_now_ns());
    inner_.on_send_batch(batch, from, to, out);
    ledger_.end(host_now_ns(), batch.size());
  }

 private:
  SpanLedger& ledger_;
  FaultLayer& inner_;
};

}  // namespace

struct TracedRig::Parts {
  // Declared before `fault` so it is destroyed after the FaultLayer, whose
  // destructor clears the network's interceptor.
  std::unique_ptr<TimedInterceptor> interceptor;
  std::unique_ptr<FaultLayer> fault;
  std::vector<std::unique_ptr<TimedTcpHost>> server_hosts;
  std::vector<std::unique_ptr<KvServer>> servers;
  std::vector<std::unique_ptr<TimedTcpHost>> client_hosts;
  std::vector<std::unique_ptr<KvClient>> clients;
  std::vector<std::unique_ptr<TimedLoadBalancer>> lbs;
  InbandLbPolicy* policy0 = nullptr;
  std::vector<RequestRecord> records;
  std::vector<ShareSnapshot> share_history;
  std::unique_ptr<PeriodicTask> share_sampler;
};

// Mirrors ClusterRig::ClusterRig statement for statement; any difference in
// order or seeds shows up as a digest mismatch.
TracedRig::TracedRig(const ClusterRigConfig& config, SpanLedger& ledger)
    : config_{config}, ledger_{ledger}, net_{sim_},
      parts_{std::make_unique<Parts>()} {
  INBAND_ASSERT(config_.mode == LbMode::kInband && config_.num_lbs == 1,
                "the traced rig supports one in-band LB tier");
  const ClusterRigConfig& c = config_;
  Parts& p = *parts_;
  const int base = c.addr_base;

  BackendPool pool;
  for (int s = 0; s < c.num_servers; ++s) {
    auto host = std::make_unique<TimedTcpHost>(
        ledger_, Layer::kTcpServer, sim_, net_, rig_server_addr(base, s),
        "server" + std::to_string(s), c.tcp,
        c.seed + 100 + static_cast<std::uint64_t>(s));
    KvServerConfig sc = c.server;
    sc.seed = c.seed + 200 + static_cast<std::uint64_t>(s);
    p.servers.push_back(std::make_unique<KvServer>(*host, sc));
    pool.push_back({static_cast<BackendId>(s), "server" + std::to_string(s),
                    rig_server_addr(base, s), 1, true});
    p.server_hosts.push_back(std::move(host));
  }

  {
    InbandPolicyConfig ic = c.inband;
    ic.maglev_table_size = c.maglev_table_size;
    auto policy = std::make_unique<TimedPolicy>(
        ledger_, std::make_unique<InbandLbPolicy>(pool, ic));
    p.policy0 = &policy->inner();
    p.lbs.push_back(std::make_unique<TimedLoadBalancer>(
        ledger_, sim_, net_, rig_vip_addr(base, 0), "lb0", pool,
        std::move(policy)));
    for (int s = 0; s < c.num_servers; ++s) {
      net_.add_link(rig_vip_addr(base, 0), rig_server_addr(base, s),
                    {c.bandwidth_bps, c.lb_server_delay, 0});
    }
  }

  for (int cl = 0; cl < c.num_client_hosts; ++cl) {
    auto host = std::make_unique<TimedTcpHost>(
        ledger_, Layer::kTcpClient, sim_, net_, rig_client_addr(base, cl),
        "client" + std::to_string(cl), c.tcp,
        c.seed + 300 + static_cast<std::uint64_t>(cl));
    const SimTime extra =
        static_cast<std::size_t>(cl) < c.client_extra_distance.size()
            ? c.client_extra_distance[static_cast<std::size_t>(cl)]
            : 0;
    net_.add_link(rig_client_addr(base, cl), rig_vip_addr(base, 0),
                  {c.bandwidth_bps, c.client_lb_delay + extra, 0});
    for (int s = 0; s < c.num_servers; ++s) {
      net_.add_link(rig_server_addr(base, s), rig_client_addr(base, cl),
                    {c.bandwidth_bps, c.server_client_delay + extra, 0});
    }
    KvClientConfig cc = c.client;
    cc.server = Endpoint{rig_vip_addr(base, 0), c.server.port};
    cc.seed = c.seed + 400 + static_cast<std::uint64_t>(cl);
    auto client = std::make_unique<KvClient>(*host, cc);
    client->set_recorder(
        [&p](const RequestRecord& rec) { p.records.push_back(rec); });
    p.clients.push_back(std::move(client));
    p.client_hosts.push_back(std::move(host));
  }

  if (c.fault.enabled()) {
    std::vector<FaultLayer::LinkRef> topo;
    for (int cl = 0; cl < c.num_client_hosts; ++cl) {
      topo.push_back({rig_client_addr(base, cl), rig_vip_addr(base, 0),
                      LinkScope::kClientToLb, cl});
    }
    for (int s = 0; s < c.num_servers; ++s) {
      topo.push_back({rig_vip_addr(base, 0), rig_server_addr(base, s),
                      LinkScope::kLbToServer, s});
    }
    for (int s = 0; s < c.num_servers; ++s) {
      for (int cl = 0; cl < c.num_client_hosts; ++cl) {
        topo.push_back({rig_server_addr(base, s), rig_client_addr(base, cl),
                        LinkScope::kServerToClient, s});
      }
    }
    p.fault =
        std::make_unique<FaultLayer>(sim_, net_, c.fault, std::move(topo));
    p.interceptor = std::make_unique<TimedInterceptor>(ledger_, *p.fault);
    net_.set_interceptor(p.interceptor.get());
    std::vector<KvServer*> raw_servers;
    raw_servers.reserve(p.servers.size());
    for (auto& s : p.servers) raw_servers.push_back(s.get());
    apply_server_faults(c.fault, sim_, *p.fault, raw_servers);
  }

  if (c.share_sample_interval > 0) {
    p.share_sampler = std::make_unique<PeriodicTask>(
        sim_, c.share_sample_interval, [&p](SimTime now) {
          p.share_history.push_back({now, p.policy0->table().shares()});
        });
  }
}

TracedRig::~TracedRig() = default;

void TracedRig::run() {
  const ClusterRigConfig& c = config_;
  Parts& p = *parts_;
  // ClusterRig::start(), without the log clock and the audit task.
  if (c.reserve_records > 0) p.records.reserve(c.reserve_records);
  if (c.inject_time < c.duration && c.inject_extra > 0) {
    sim_.schedule_at(c.inject_time, [this] {
      net_.link(rig_vip_addr(config_.addr_base, 0),
                rig_server_addr(config_.addr_base, config_.victim))
          .set_extra_delay(config_.inject_extra);
    });
  }
  if (p.share_sampler) p.share_sampler->start(c.share_sample_interval);
  for (auto& cl : p.clients) cl->start();

  // Simulator::run_until(duration), one span per step.
  ledger_.start(host_now_ns());
  for (;;) {
    const SimTime next = sim_.next_event_time();
    if (next == kNoTime || next > c.duration) break;
    ledger_.begin(Layer::kSimTimer, host_now_ns());
    sim_.step();
    ledger_.end(host_now_ns());
    pending_max_ = std::max(pending_max_, sim_.pending_events());
  }
  if (sim_.now() < c.duration) sim_.advance_to(c.duration);
  ledger_.stop(host_now_ns());

  // ClusterRig::finish().
  for (auto& cl : p.clients) cl->stop();
}

std::uint64_t TracedRig::state_digest() {
  Parts& p = *parts_;
  StateDigest d;
  sim_.digest_state(d);
  if (p.fault) p.fault->digest_state(d);
  for (auto& lb : p.lbs) lb->digest_state(d);
  for (auto& h : p.server_hosts) h->stack().digest_state(d);
  for (auto& h : p.client_hosts) h->stack().digest_state(d);
  d.mix(p.records.size());
  for (const auto& r : p.records) {
    d.mix_i64(r.sent_at);
    d.mix_i64(r.latency);
    d.mix_u32(static_cast<std::uint32_t>(r.op));
    d.mix_bool(r.hit);
    d.mix_u32(static_cast<std::uint32_t>(r.conn_index));
    d.mix(hash_flow(r.flow));
  }
  d.mix(p.share_history.size());
  for (const auto& snap : p.share_history) {
    d.mix_i64(snap.t);
    for (const double v : snap.shares) d.mix_double(v);
  }
  return d.value();
}

}  // namespace perfbench
