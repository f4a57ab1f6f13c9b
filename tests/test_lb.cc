// Unit tests: LB module (Maglev hashing, conntrack, baseline policies,
// dataplane forwarding under DSR).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <tuple>

#include "check/state_digest.h"
#include "core/inband_lb_policy.h"
#include "lb/load_balancer.h"
#include "lb/policies.h"
#include "tcp/stack.h"

namespace inband {
namespace {

BackendPool make_pool(int n, std::uint32_t weight = 1) {
  BackendPool pool;
  for (int i = 0; i < n; ++i) {
    pool.push_back({static_cast<BackendId>(i), "backend" + std::to_string(i),
                    make_ipv4(10, 2, 0, static_cast<std::uint8_t>(1 + i)),
                    weight, true});
  }
  return pool;
}

FlowKey flow_n(std::uint32_t n) {
  return {{make_ipv4(10, 0, 0, 1), static_cast<std::uint16_t>(1024 + n % 50000)},
          {make_ipv4(10, 1, 0, 1), 80},
          IpProto::kTcp};
}

constexpr std::uint8_t kFinAck = tcpflag::kFin | tcpflag::kAck;

// --- Maglev ---

TEST(Maglev, TableFullyPopulated) {
  MaglevTable t{251};
  t.build(make_pool(3));
  for (BackendId id : t.raw_table()) EXPECT_NE(id, kNoBackend);
}

TEST(Maglev, NearEvenDistribution) {
  MaglevTable t{65537};
  t.build(make_pool(5));
  for (int i = 0; i < 5; ++i) {
    const double share = static_cast<double>(t.slots_owned(
                             static_cast<BackendId>(i))) /
                         65537.0;
    EXPECT_NEAR(share, 0.2, 0.01) << "backend " << i;
  }
}

TEST(Maglev, WeightsScaleShares) {
  auto pool = make_pool(2);
  pool[0].weight = 3;
  pool[1].weight = 1;
  MaglevTable t{65537};
  t.build(pool);
  const auto shares = t.shares();
  EXPECT_NEAR(shares[0], 0.75, 0.02);
  EXPECT_NEAR(shares[1], 0.25, 0.02);
}

TEST(Maglev, UnhealthyBackendGetsNoSlots) {
  auto pool = make_pool(3);
  pool[1].healthy = false;
  MaglevTable t{251};
  t.build(pool);
  EXPECT_EQ(t.slots_owned(1), 0u);
  EXPECT_EQ(t.slots_owned(0) + t.slots_owned(2), 251u);
}

TEST(Maglev, LookupIsDeterministic) {
  MaglevTable t{251};
  t.build(make_pool(4));
  const FlowKey f = flow_n(7);
  const BackendId b = t.lookup(f);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(t.lookup(f), b);
}

TEST(Maglev, RemovalCausesMinimalDisruption) {
  MaglevTable before{65537};
  before.build(make_pool(10));
  auto pool = make_pool(10);
  pool[3].healthy = false;
  MaglevTable after{65537};
  after.build(pool);
  // Slots not owned by backend 3 should mostly stay put (Maglev's property:
  // disruption ≈ removed share + small churn).
  std::size_t moved_unrelated = 0;
  for (std::uint64_t i = 0; i < 65537; ++i) {
    if (before.raw_table()[i] != 3 &&
        before.raw_table()[i] != after.raw_table()[i]) {
      ++moved_unrelated;
    }
  }
  EXPECT_LT(static_cast<double>(moved_unrelated) / 65537.0, 0.03);
}

TEST(Maglev, ShiftSlotsMovesRequestedFraction) {
  MaglevTable t{4099};
  t.build(make_pool(4));
  const std::size_t before = t.slots_owned(2);
  const std::size_t moved = t.shift_slots(2, 0.10);
  EXPECT_EQ(moved, static_cast<std::size_t>(4099 * 0.10) + 1);
  EXPECT_EQ(t.slots_owned(2), before - moved);
}

TEST(Maglev, ShiftSpreadsEquallyOverOthers) {
  MaglevTable t{4099};
  t.build(make_pool(4));
  std::vector<std::size_t> before;
  for (BackendId i = 0; i < 4; ++i) before.push_back(t.slots_owned(i));
  const std::size_t moved = t.shift_slots(0, 0.09);
  std::size_t gained_total = 0;
  for (BackendId i = 1; i < 4; ++i) {
    const std::size_t gained = t.slots_owned(i) - before[i];
    EXPECT_NEAR(static_cast<double>(gained),
                static_cast<double>(moved) / 3.0, 2.0);
    gained_total += gained;
  }
  EXPECT_EQ(gained_total, moved);
}

TEST(Maglev, RepeatedShiftsDrainBackend) {
  MaglevTable t{4099};
  t.build(make_pool(2));
  for (int i = 0; i < 20; ++i) t.shift_slots(0, 0.10);
  EXPECT_EQ(t.slots_owned(0), 0u);
  EXPECT_EQ(t.slots_owned(1), 4099u);
  // Shifting from an empty owner is a no-op.
  EXPECT_EQ(t.shift_slots(0, 0.10), 0u);
}

TEST(Maglev, MoveSlotsBounded) {
  MaglevTable t{251};
  t.build(make_pool(2));
  const std::size_t owned = t.slots_owned(0);
  EXPECT_EQ(t.move_slots(0, 1, 100000), owned);
  EXPECT_EQ(t.slots_owned(0), 0u);
}

TEST(Maglev, DiffCountsChangedSlots) {
  MaglevTable a{251};
  a.build(make_pool(2));
  MaglevTable b{251};
  b.build(make_pool(2));
  EXPECT_EQ(a.diff(b), 0u);
  const std::size_t moved = b.shift_slots(0, 0.5);
  EXPECT_EQ(a.diff(b), moved);
}

TEST(Maglev, SingleBackendOwnsAll) {
  MaglevTable t{251};
  t.build(make_pool(1));
  EXPECT_EQ(t.slots_owned(0), 251u);
  EXPECT_EQ(t.shift_slots(0, 0.5), 0u);  // nowhere to shift to
}

TEST(Maglev, TablePinnedAcrossSizesAndWeights) {
  // build() walks each backend's permutation (offset + k * skip) mod M.
  // These digests of the full slot assignment were taken from the
  // modulo-per-probe form; any other walk of the same permutation must
  // reproduce them.
  BackendPool weighted = make_pool(3);
  weighted[0].weight = 1;
  weighted[1].weight = 3;
  weighted[2].weight = 7;
  const BackendPool pools[] = {make_pool(2), make_pool(16), weighted};
  struct Pin {
    std::uint64_t size;
    std::uint64_t digest[3];  // two equal, sixteen equal, weights 1:3:7
  };
  constexpr Pin kPins[] = {
      {7, {0xf78ae5097f0e7da4ULL, 0x0ec27fa9b071c1ccULL, 0x7331daa7c0cfcea4ULL}},
      {4099,
       {0x6e1be3dd57875500ULL, 0x80f4a548b02ff36cULL, 0x402b99abec8328e0ULL}},
      {65537,
       {0x0c8ebacb03534532ULL, 0x9133c535ea151bdcULL, 0x7628188c6e9b4471ULL}},
  };
  for (const Pin& pin : kPins) {
    for (std::size_t p = 0; p < 3; ++p) {
      MaglevTable t{pin.size};
      t.build(pools[p]);
      StateDigest d;
      t.digest_state(d);
      EXPECT_EQ(d.value(), pin.digest[p])
          << "size " << pin.size << " pool " << p << " got 0x" << std::hex
          << d.value();
    }
  }
}

TEST(Maglev, SlotCountsMatchRescanUnderRandomOps) {
  // slots_owned() and shares() read per-backend counts that build,
  // shift_slots, move_slots and corrupt_slot_for_test keep up to date.
  // After every operation they must equal a rescan of the raw table, and
  // shares() must have the size and the exact doubles the rescan gives.
  constexpr std::uint64_t kSize = 1009;
  MaglevTable t{kSize};
  Rng rng{20261017};
  std::size_t pool_size = 1;  // max_backend_id + 1 of the last build
  const auto check = [&](int step) {
    std::vector<std::size_t> scan(pool_size, 0);
    std::size_t unowned = 0;
    for (const BackendId id : t.raw_table()) {
      if (id == kNoBackend) {
        ++unowned;
        continue;
      }
      if (id >= scan.size()) scan.resize(id + 1, 0);
      ++scan[id];
    }
    const auto shares = t.shares();
    ASSERT_EQ(shares.size(), scan.size()) << "step " << step;
    for (std::size_t id = 0; id < scan.size(); ++id) {
      ASSERT_EQ(t.slots_owned(static_cast<BackendId>(id)), scan[id])
          << "step " << step << " id " << id;
      ASSERT_EQ(shares[id], static_cast<double>(scan[id]) /
                                static_cast<double>(kSize))
          << "step " << step << " id " << id;
    }
    ASSERT_EQ(t.slots_owned(kNoBackend), unowned) << "step " << step;
  };
  check(-1);
  for (int step = 0; step < 400; ++step) {
    const auto id = [&] {
      return static_cast<BackendId>(rng.uniform_u64(0, 9));
    };
    const std::uint64_t op = step == 0 ? 0 : rng.uniform_u64(0, 9);
    if (op == 0) {
      auto pool = make_pool(static_cast<int>(rng.uniform_u64(2, 8)));
      for (auto& b : pool) {
        b.weight = static_cast<std::uint32_t>(rng.uniform_u64(0, 3));
        b.healthy = rng.bernoulli(0.9);
      }
      pool[0].weight = 1;
      pool[0].healthy = true;
      t.build(pool);
      pool_size = pool.size();
    } else if (op < 5) {
      t.shift_slots(id(), rng.uniform_double(0.0, 0.3));
    } else if (op < 9) {
      t.move_slots(id(), id(), rng.uniform_u64(0, 300));
    } else {
      t.corrupt_slot_for_test(rng.uniform_u64(0, kSize - 1),
                              rng.bernoulli(0.2) ? kNoBackend : id() + 3);
    }
    check(step);
  }
}

// --- conntrack ---

TEST(Conntrack, InsertLookupHit) {
  ConnTracker ct;
  const FlowKey f = flow_n(1);
  EXPECT_EQ(ct.lookup(f, 0), kNoBackend);
  ct.insert(f, 2, 0);
  EXPECT_EQ(ct.lookup(f, us(1)), 2u);
  EXPECT_EQ(ct.hits(), 1u);
  EXPECT_EQ(ct.misses(), 1u);
}

TEST(Conntrack, IdleExpiry) {
  ConntrackConfig cfg;
  cfg.idle_timeout = ms(10);
  ConnTracker ct{cfg};
  ct.insert(flow_n(1), 0, 0);
  EXPECT_EQ(ct.lookup(flow_n(1), ms(5)), 0u);
  EXPECT_EQ(ct.lookup(flow_n(1), ms(20)), kNoBackend);  // refreshed at 5ms +10
}

TEST(Conntrack, ClosingLingerThenGone) {
  ConntrackConfig cfg;
  cfg.closing_linger = ms(1);
  ConnTracker ct{cfg};
  ct.insert(flow_n(1), 0, 0);
  EXPECT_FALSE(ct.probe(flow_n(1), us(10), /*closes=*/true).was_closing);
  // Only the first FIN/RST is the transition.
  EXPECT_TRUE(ct.probe(flow_n(1), us(10), /*closes=*/true).was_closing);
  // Still pinned during the linger (FIN retransmits must reach the server).
  EXPECT_EQ(ct.lookup(flow_n(1), us(500)), 0u);
  EXPECT_EQ(ct.lookup(flow_n(1), ms(3)), kNoBackend);
}

TEST(Conntrack, ProbeMarksClosingInTheSameLookup) {
  ConnTracker ct;
  const FlowKey f = flow_n(1);
  const ConnTracker::Probe miss = ct.probe(f, 0, /*closes=*/false);
  EXPECT_EQ(miss.backend, kNoBackend);
  EXPECT_FALSE(miss.was_closing);
  ct.insert(f, 1, 0);
  const ConnTracker::Probe open = ct.probe(f, us(1), /*closes=*/false);
  EXPECT_EQ(open.backend, 1u);
  EXPECT_FALSE(open.was_closing);
  const ConnTracker::Probe fin = ct.probe(f, us(2), /*closes=*/true);
  EXPECT_EQ(fin.backend, 1u);
  EXPECT_FALSE(fin.was_closing);  // this packet is the close
  const ConnTracker::Probe ack = ct.probe(f, us(3), /*closes=*/false);
  EXPECT_EQ(ack.backend, 1u);
  EXPECT_TRUE(ack.was_closing);
  EXPECT_EQ(ct.hits(), 3u);
  EXPECT_EQ(ct.misses(), 1u);
  EXPECT_EQ(ct.connections_per_backend().size(), 0u);

  // A flow first seen on its FIN is inserted already closing.
  ct.insert(flow_n(2), 0, us(4), /*closing=*/true);
  EXPECT_TRUE(ct.probe(flow_n(2), us(5), /*closes=*/false).was_closing);
}

TEST(Conntrack, SweepRemovesExpired) {
  ConntrackConfig cfg;
  cfg.idle_timeout = ms(1);
  cfg.sweep_interval = ms(1);
  ConnTracker ct{cfg};
  for (std::uint32_t i = 0; i < 100; ++i) ct.insert(flow_n(i), 0, 0);
  EXPECT_EQ(ct.size(), 100u);
  ct.sweep(ms(10));
  EXPECT_EQ(ct.size(), 0u);
  EXPECT_EQ(ct.expirations(), 100u);
}

TEST(Conntrack, CapacityEviction) {
  ConntrackConfig cfg;
  cfg.max_entries = 10;
  ConnTracker ct{cfg};
  for (std::uint32_t i = 0; i < 15; ++i) {
    ct.insert(flow_n(i), 0, static_cast<SimTime>(i));
  }
  EXPECT_LE(ct.size(), 10u);
  EXPECT_EQ(ct.evictions(), 5u);
  // The most recent entries survive.
  EXPECT_EQ(ct.lookup(flow_n(14), 100), 0u);
}

TEST(Conntrack, ConnectionsPerBackendExcludesClosing) {
  ConnTracker ct;
  ct.insert(flow_n(1), 0, 0);
  ct.insert(flow_n(2), 1, 0);
  ct.insert(flow_n(3), 1, 0);
  ct.probe(flow_n(2), 0, /*closes=*/true);
  const auto counts = ct.connections_per_backend();
  ASSERT_GE(counts.size(), 2u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
}

// --- baseline policies ---

TEST(Policies, RoundRobinCycles) {
  RoundRobinPolicy p{make_pool(3)};
  EXPECT_EQ(p.pick(flow_n(0), 0), 0u);
  EXPECT_EQ(p.pick(flow_n(1), 0), 1u);
  EXPECT_EQ(p.pick(flow_n(2), 0), 2u);
  EXPECT_EQ(p.pick(flow_n(3), 0), 0u);
}

TEST(Policies, RoundRobinSkipsUnhealthy) {
  auto pool = make_pool(3);
  pool[1].healthy = false;
  RoundRobinPolicy p{pool};
  std::set<BackendId> seen;
  for (int i = 0; i < 6; ++i) seen.insert(p.pick(flow_n(0), 0));
  EXPECT_EQ(seen, (std::set<BackendId>{0, 2}));
}

TEST(Policies, WeightedRandomFollowsWeights) {
  auto pool = make_pool(2);
  pool[0].weight = 3;
  pool[1].weight = 1;
  WeightedRandomPolicy p{pool, 7};
  int first = 0;
  constexpr int kN = 20'000;
  for (int i = 0; i < kN; ++i) {
    if (p.pick(flow_n(0), 0) == 0) ++first;
  }
  EXPECT_NEAR(static_cast<double>(first) / kN, 0.75, 0.02);
}

TEST(Policies, LeastConnBalancesAndReleases) {
  LeastConnPolicy p{make_pool(2)};
  const BackendId a = p.pick(flow_n(1), 0);
  const BackendId b = p.pick(flow_n(2), 0);
  EXPECT_NE(a, b);  // second pick goes to the other backend
  p.on_flow_closed(flow_n(1), a, 0);
  EXPECT_EQ(p.live_connections(a), 0u);
  EXPECT_EQ(p.pick(flow_n(3), 0), a);  // now the emptier one
}

TEST(Policies, StaticMaglevConsistent) {
  StaticMaglevPolicy p{make_pool(4), 251};
  const BackendId b = p.pick(flow_n(9), 0);
  EXPECT_EQ(p.pick(flow_n(9), us(10)), b);
}

// --- dataplane ---

struct RecordingHost final : Host {
  using Host::Host;
  void handle_batch(PacketBatch&& batch) override {
    for (std::uint32_t i = 0; i < batch.size(); ++i) {
      received.push_back(*batch[i]);
    }
  }
  std::vector<Packet> received;
};

struct LbRig {
  LbRig(int n_backends, std::unique_ptr<RoutingPolicy> policy,
        ConntrackConfig ct = {})
      : net{sim} {
    pool = make_pool(n_backends);
    for (int i = 0; i < n_backends; ++i) {
      std::string name = "b";
      name += std::to_string(i);
      backends.push_back(std::make_unique<RecordingHost>(
          sim, net, pool[static_cast<std::size_t>(i)].addr, std::move(name)));
    }
    client = std::make_unique<RecordingHost>(sim, net, make_ipv4(10, 0, 0, 1),
                                             "client");
    lb = std::make_unique<LoadBalancer>(sim, net, make_ipv4(10, 1, 0, 1),
                                        "lb", pool, std::move(policy), ct);
    net.add_link(client->addr(), lb->addr(), {});
    for (auto& b : backends) net.add_link(lb->addr(), b->addr(), {});
  }

  void send(const FlowKey& f, std::uint8_t flags = 0) {
    PacketRef p = net.pool().acquire();
    p->flow = f;
    p->flags = flags;
    client->send(std::move(p));
    sim.run();
  }

  Simulator sim;
  Network net;
  BackendPool pool;
  std::vector<std::unique_ptr<RecordingHost>> backends;
  std::unique_ptr<RecordingHost> client;
  std::unique_ptr<LoadBalancer> lb;
};

FlowKey vip_flow(std::uint16_t port) {
  return {{make_ipv4(10, 0, 0, 1), port},
          {make_ipv4(10, 1, 0, 1), 80},
          IpProto::kTcp};
}

TEST(LoadBalancer, ForwardsToPolicyChoice) {
  LbRig rig{2, std::make_unique<RoundRobinPolicy>(make_pool(2))};
  rig.send(vip_flow(1000), tcpflag::kSyn);
  rig.send(vip_flow(1001), tcpflag::kSyn);
  EXPECT_EQ(rig.backends[0]->received.size(), 1u);
  EXPECT_EQ(rig.backends[1]->received.size(), 1u);
}

TEST(LoadBalancer, PerConnectionConsistency) {
  LbRig rig{2, std::make_unique<RoundRobinPolicy>(make_pool(2))};
  // Same flow repeatedly: all packets to the same backend even though the
  // policy would round-robin.
  for (int i = 0; i < 6; ++i) rig.send(vip_flow(1000));
  const auto total0 = rig.backends[0]->received.size();
  const auto total1 = rig.backends[1]->received.size();
  EXPECT_TRUE((total0 == 6 && total1 == 0) || (total0 == 0 && total1 == 6));
}

TEST(LoadBalancer, FlowKeptOnSameBackendAcrossTableChange) {
  auto policy = std::make_unique<StaticMaglevPolicy>(make_pool(2), 251);
  auto* policy_ptr = policy.get();
  LbRig rig{2, std::move(policy)};
  rig.send(vip_flow(1000), tcpflag::kSyn);
  const bool first_to_0 = rig.backends[0]->received.size() == 1;
  // Nuke the table the other way by rebuilding with one backend unhealthy.
  auto pool = make_pool(2);
  pool[first_to_0 ? 0 : 1].healthy = false;
  const_cast<MaglevTable&>(policy_ptr->table()).build(pool);
  rig.send(vip_flow(1000));
  // Conntrack still pins the old backend.
  EXPECT_EQ(rig.backends[first_to_0 ? 0 : 1]->received.size(), 2u);
}

TEST(LoadBalancer, DsrMeansLbNeverSeesResponses) {
  LbRig rig{1, std::make_unique<RoundRobinPolicy>(make_pool(1))};
  // Backend replies directly to the client (needs a link, not via LB).
  rig.net.add_link(rig.backends[0]->addr(), rig.client->addr(), {});
  rig.send(vip_flow(1000), tcpflag::kSyn);
  PacketRef resp = rig.net.pool().acquire();
  resp->flow = vip_flow(1000).reversed();
  rig.backends[0]->send(std::move(resp));
  rig.sim.run();
  ASSERT_EQ(rig.client->received.size(), 1u);
  // The LB forwarded exactly one packet (the request) and saw nothing else.
  EXPECT_EQ(rig.lb->counters().value("lb.packets_in"), 1u);
}

TEST(LoadBalancer, FinTriggersFlowClosedOnce) {
  LbRig rig{2, std::make_unique<LeastConnPolicy>(make_pool(2))};
  auto* lc = dynamic_cast<LeastConnPolicy*>(&rig.lb->policy());
  ASSERT_NE(lc, nullptr);
  rig.send(vip_flow(1000), tcpflag::kSyn);
  EXPECT_EQ(lc->live_connections(0) + lc->live_connections(1), 1u);
  rig.send(vip_flow(1000), tcpflag::kFin);
  rig.send(vip_flow(1000), tcpflag::kFin);  // retransmitted FIN
  EXPECT_EQ(lc->live_connections(0) + lc->live_connections(1), 0u);
  EXPECT_EQ(rig.lb->counters().value("lb.flows_closed"), 1u);
}

TEST(LoadBalancer, PolicySeesAFlowUpToItsCloseOnly) {
  // The lb/policy.h contract: on_packet for every packet through the one
  // that closes the flow, then on_flow_closed once; packets after the close
  // are forwarded but reach neither hook.
  struct Recorder final : RoutingPolicy {
    std::string name() const override { return "recorder"; }
    BackendId pick(const FlowKey&, SimTime) override { return 0; }
    void on_packet(const Packet& pkt, BackendId, SimTime, bool) override {
      log += pkt.has(tcpflag::kFin) ? "F" : pkt.has(tcpflag::kRst) ? "R" : "p";
    }
    void on_flow_closed(const FlowKey&, BackendId, SimTime) override {
      log += "|";
    }
    std::string log;
  };
  auto policy = std::make_unique<Recorder>();
  const Recorder& rec = *policy;
  LbRig rig{1, std::move(policy)};
  rig.send(vip_flow(1000), tcpflag::kSyn);
  rig.send(vip_flow(1000), tcpflag::kAck);
  rig.send(vip_flow(1000), kFinAck);
  rig.send(vip_flow(1000), tcpflag::kAck);  // last ACK
  rig.send(vip_flow(1000), kFinAck);        // retransmitted FIN
  rig.send(vip_flow(1000), tcpflag::kRst);  // late RST
  EXPECT_EQ(rec.log, "ppF|");
  EXPECT_EQ(rig.backends[0]->received.size(), 6u);
  EXPECT_EQ(rig.lb->counters().value("lb.flows_closed"), 1u);

  // A flow whose first packet is its RST opens and closes on that packet.
  rig.send(vip_flow(1001), tcpflag::kRst);
  rig.send(vip_flow(1001), tcpflag::kAck);
  EXPECT_EQ(rec.log, "ppF|R|");
  EXPECT_EQ(rig.lb->counters().value("lb.flows_closed"), 2u);
}

TEST(LoadBalancer, ClosedFlowLeavesNoEstimatorState) {
  // SYN -> data -> FIN -> last ACK through the in-band policy. The FIN is
  // the flow's last estimator packet and is sampled against the flow's live
  // state; the close then frees that state, and the last ACK does not bring
  // it back.
  auto policy = std::make_unique<InbandLbPolicy>(make_pool(2));
  const InbandLbPolicy& inband = *policy;
  LbRig rig{2, std::move(policy)};
  const auto idle = [&rig](SimTime gap) {
    rig.sim.run_until(rig.sim.now() + gap);
  };
  const FlowKey f = vip_flow(1000);
  rig.send(f, tcpflag::kSyn);
  rig.send(f, tcpflag::kAck);  // same batch: gap below 64 us
  // A gap above the smallest timeout (64 us, the initial choice) ends a
  // batch and produces one T_LB sample.
  idle(us(300));
  rig.send(f, tcpflag::kAck);
  EXPECT_EQ(inband.tracked_flows(), 1u);
  const std::uint64_t before_fin = inband.samples_total();
  EXPECT_EQ(before_fin, 1u);

  idle(us(300));
  rig.send(f, kFinAck);
  EXPECT_EQ(inband.samples_total(), before_fin + 1);  // sampled, live state
  EXPECT_EQ(inband.tracked_flows(), 0u);
  EXPECT_EQ(inband.flow_delta(f), kNoTime);

  idle(us(300));
  rig.send(f, tcpflag::kAck);  // the client's last ACK
  EXPECT_EQ(inband.tracked_flows(), 0u);
  EXPECT_EQ(inband.samples_total(), before_fin + 1);
  // Still forwarded on the pinned backend: 5 packets, one backend.
  EXPECT_EQ(std::max(rig.backends[0]->received.size(),
                     rig.backends[1]->received.size()),
            5u);
}

TEST(LoadBalancer, CountsPerBackend) {
  LbRig rig{2, std::make_unique<RoundRobinPolicy>(make_pool(2))};
  rig.send(vip_flow(1), tcpflag::kSyn);
  rig.send(vip_flow(2), tcpflag::kSyn);
  rig.send(vip_flow(1));
  EXPECT_EQ(rig.lb->new_flows_to(0) + rig.lb->new_flows_to(1), 2u);
  EXPECT_EQ(rig.lb->forwarded_to(0) + rig.lb->forwarded_to(1), 3u);
}

TEST(LoadBalancer, UnhealthyPolicyChoiceDropped) {
  struct BadPolicy final : RoutingPolicy {
    std::string name() const override { return "bad"; }
    BackendId pick(const FlowKey&, SimTime) override { return kNoBackend; }
  };
  LbRig rig{1, std::make_unique<BadPolicy>()};
  rig.send(vip_flow(1), tcpflag::kSyn);
  EXPECT_EQ(rig.backends[0]->received.size(), 0u);
  EXPECT_EQ(rig.lb->counters().value("lb.drops_no_backend"), 1u);
}


// --- parameterized Maglev properties ---

// (table_size, pool_size)
class MaglevProperty
    : public testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(MaglevProperty, FullCoverageAndNearEvenShares) {
  const auto [table_size, pool_size] = GetParam();
  MaglevTable t{table_size};
  t.build(make_pool(pool_size));
  std::size_t total = 0;
  for (int i = 0; i < pool_size; ++i) {
    total += t.slots_owned(static_cast<BackendId>(i));
  }
  EXPECT_EQ(total, table_size);  // every slot owned
  const double fair = 1.0 / pool_size;
  for (int i = 0; i < pool_size; ++i) {
    const double share =
        static_cast<double>(t.slots_owned(static_cast<BackendId>(i))) /
        static_cast<double>(table_size);
    // Maglev's guarantee: within a few percent of fair for M >> N.
    EXPECT_NEAR(share, fair, fair * 0.25) << "backend " << i;
  }
}

TEST_P(MaglevProperty, LookupAlwaysReturnsPoolMember) {
  const auto [table_size, pool_size] = GetParam();
  MaglevTable t{table_size};
  t.build(make_pool(pool_size));
  for (std::uint32_t i = 0; i < 500; ++i) {
    const BackendId b = t.lookup(flow_n(i));
    EXPECT_LT(b, static_cast<BackendId>(pool_size));
  }
}

TEST_P(MaglevProperty, ShiftConservesSlotCount) {
  const auto [table_size, pool_size] = GetParam();
  if (pool_size < 2) return;
  MaglevTable t{table_size};
  t.build(make_pool(pool_size));
  t.shift_slots(0, 0.13);
  std::size_t total = 0;
  for (int i = 0; i < pool_size; ++i) {
    total += t.slots_owned(static_cast<BackendId>(i));
  }
  EXPECT_EQ(total, table_size);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndPools, MaglevProperty,
    testing::Combine(testing::Values<std::uint64_t>(251, 1021, 4099, 65537),
                     testing::Values(1, 2, 5, 16)));

// Maglev's headline property across pool sizes: removing one backend moves
// almost nothing else.
class MaglevDisruption : public testing::TestWithParam<int> {};

TEST_P(MaglevDisruption, RemovalMovesOnlyVictimSlots) {
  const int n = GetParam();
  MaglevTable before{4099};
  before.build(make_pool(n));
  auto pool = make_pool(n);
  pool[0].healthy = false;
  MaglevTable after{4099};
  after.build(pool);
  std::size_t moved_unrelated = 0;
  for (std::uint64_t i = 0; i < 4099; ++i) {
    if (before.raw_table()[i] != 0 &&
        before.raw_table()[i] != after.raw_table()[i]) {
      ++moved_unrelated;
    }
  }
  EXPECT_LT(static_cast<double>(moved_unrelated) / 4099.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Pools, MaglevDisruption,
                         testing::Values(2, 4, 8, 32));

// --- parameterized conntrack capacity behaviour ---

class ConntrackCapacity : public testing::TestWithParam<std::size_t> {};

TEST_P(ConntrackCapacity, NeverExceedsMaxAndKeepsFreshest) {
  ConntrackConfig cfg;
  cfg.max_entries = GetParam();
  ConnTracker ct{cfg};
  const std::uint32_t total = static_cast<std::uint32_t>(GetParam() * 3);
  for (std::uint32_t i = 0; i < total; ++i) {
    ct.insert(flow_n(i), 0, static_cast<SimTime>(i));
    EXPECT_LE(ct.size(), GetParam());
  }
  // The very last insert always survives.
  EXPECT_EQ(ct.lookup(flow_n(total - 1), static_cast<SimTime>(total)), 0u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, ConntrackCapacity,
                         testing::Values(4, 64, 1024));


// --- weighted Maglev mechanics ---

TEST(MaglevWeighted, InterleavesRatherThanClusters) {
  auto pool = make_pool(2);
  pool[0].weight = 4500;
  pool[1].weight = 5500;
  MaglevTable t{4099};
  t.build(pool);
  // Shares follow the weights...
  const auto shares = t.shares();
  EXPECT_NEAR(shares[0], 0.45, 0.02);
  EXPECT_NEAR(shares[1], 0.55, 0.02);
  // ...and slots are interleaved: the longest same-owner run stays short.
  std::size_t run = 1;
  std::size_t longest = 1;
  const auto& raw = t.raw_table();
  for (std::size_t i = 1; i < raw.size(); ++i) {
    run = raw[i] == raw[i - 1] ? run + 1 : 1;
    longest = std::max(longest, run);
  }
  EXPECT_LT(longest, 40u);  // naive consecutive-turn builds produce runs of thousands
}

TEST(MaglevWeighted, SmallWeightChangeIsSmallDisruption) {
  auto pool = make_pool(4);
  for (auto& b : pool) b.weight = 1000;
  MaglevTable before{4099};
  before.build(pool);
  pool[0].weight = 900;  // -10% on one backend
  MaglevTable after{4099};
  after.build(pool);
  // Disruption should be in the ballpark of the share actually moved
  // (~2.5% of the table), not a rewrite.
  const double disruption =
      static_cast<double>(before.diff(after)) / 4099.0;
  EXPECT_LT(disruption, 0.15);
}

TEST(MaglevWeighted, ExtremeWeightRatios) {
  auto pool = make_pool(3);
  pool[0].weight = 1;
  pool[1].weight = 10;
  pool[2].weight = 100;
  MaglevTable t{4099};
  t.build(pool);
  const auto shares = t.shares();
  EXPECT_NEAR(shares[0], 1.0 / 111, 0.01);
  EXPECT_NEAR(shares[1], 10.0 / 111, 0.02);
  EXPECT_NEAR(shares[2], 100.0 / 111, 0.03);
}

// --- backend health management on the dataplane ---

TEST(LoadBalancer, UnhealthyBackendAvoidedByNewFlows) {
  LbRig rig{2, std::make_unique<StaticMaglevPolicy>(make_pool(2), 251)};
  rig.lb->set_backend_health(0, false);
  for (std::uint16_t p = 100; p < 140; ++p) {
    rig.send(vip_flow(p), tcpflag::kSyn);
  }
  EXPECT_EQ(rig.backends[0]->received.size(), 0u);
  EXPECT_EQ(rig.backends[1]->received.size(), 40u);
  EXPECT_EQ(rig.lb->counters().value("lb.pool_changes"), 1u);
}

TEST(LoadBalancer, ExistingConnectionsDrainThroughUnhealthyBackend) {
  LbRig rig{2, std::make_unique<StaticMaglevPolicy>(make_pool(2), 251)};
  rig.send(vip_flow(100), tcpflag::kSyn);
  const bool on_0 = rig.backends[0]->received.size() == 1;
  const BackendId pinned = on_0 ? 0 : 1;
  rig.lb->set_backend_health(pinned, false);
  // The pinned flow keeps flowing to its (draining) backend.
  rig.send(vip_flow(100));
  EXPECT_EQ(rig.backends[pinned]->received.size(), 2u);
}

TEST(LoadBalancer, HealthRestoredBackendReceivesAgain) {
  LbRig rig{2, std::make_unique<RoundRobinPolicy>(make_pool(2))};
  rig.lb->set_backend_health(0, false);
  rig.send(vip_flow(1), tcpflag::kSyn);
  rig.send(vip_flow(2), tcpflag::kSyn);
  EXPECT_EQ(rig.backends[0]->received.size(), 0u);
  rig.lb->set_backend_health(0, true);
  rig.send(vip_flow(3), tcpflag::kSyn);
  rig.send(vip_flow(4), tcpflag::kSyn);
  EXPECT_GT(rig.backends[0]->received.size(), 0u);
}

TEST(LoadBalancer, WeightChangeRebalancesNewFlows) {
  LbRig rig{2, std::make_unique<StaticMaglevPolicy>(make_pool(2), 4099)};
  auto* policy = dynamic_cast<StaticMaglevPolicy*>(&rig.lb->policy());
  ASSERT_NE(policy, nullptr);
  rig.lb->set_backend_weight(0, 9);
  rig.lb->set_backend_weight(1, 1);
  const auto shares = policy->table().shares();
  EXPECT_NEAR(shares[0], 0.9, 0.03);
}


// --- robustness: junk traffic at the LB (§2.4 mentions volumetric attacks) ---

TEST(LoadBalancer, SynFloodBoundsAllState) {
  ConntrackConfig ct;
  ct.max_entries = 256;
  LbRig rig{2, std::make_unique<RoundRobinPolicy>(make_pool(2)), ct};
  // 10k distinct spoofed flows, SYN only, no follow-up.
  for (std::uint32_t i = 0; i < 10'000; ++i) {
    PacketRef p = rig.net.pool().acquire();
    p->flow = {{make_ipv4(10, 0, 0, 1),
                static_cast<std::uint16_t>(1 + i % 60'000)},
               {make_ipv4(10, 1, 0, 1),
                static_cast<std::uint16_t>(80 + i / 60'000)},
               IpProto::kTcp};
    p->flags = tcpflag::kSyn;
    rig.client->send(std::move(p));
  }
  rig.sim.run();
  EXPECT_LE(rig.lb->conntrack().size(), 256u);
  EXPECT_GT(rig.lb->conntrack().evictions(), 0u);
  // Every SYN still forwarded (the LB does not blackhole; servers decide).
  EXPECT_EQ(rig.backends[0]->received.size() + rig.backends[1]->received.size(),
            10'000u);
}

}  // namespace
}  // namespace inband
