// Unit tests: net module (addressing, flow keys, links, network fabric,
// trace recording).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <unordered_set>

#include "check/reference_models.h"
#include "net/network.h"
#include "net/packet_pool.h"
#include "net/payload_pool.h"
#include "net/trace.h"
#include "sim/simulator.h"

namespace inband {
namespace {

TEST(Address, FormatIpv4) {
  EXPECT_EQ(format_ipv4(make_ipv4(10, 0, 0, 1)), "10.0.0.1");
  EXPECT_EQ(format_ipv4(make_ipv4(255, 255, 255, 255)), "255.255.255.255");
}

TEST(Address, FormatEndpoint) {
  EXPECT_EQ(format_endpoint({make_ipv4(1, 2, 3, 4), 80}), "1.2.3.4:80");
}

TEST(FlowKey, EqualityAndReversal) {
  const FlowKey f{{make_ipv4(10, 0, 0, 1), 1111},
                  {make_ipv4(10, 1, 0, 1), 80},
                  IpProto::kTcp};
  EXPECT_EQ(f, f);
  const FlowKey r = f.reversed();
  EXPECT_EQ(r.src, f.dst);
  EXPECT_EQ(r.dst, f.src);
  EXPECT_EQ(r.reversed(), f);
  EXPECT_NE(hash_flow(f), hash_flow(r));
}

TEST(FlowKey, HashSensitiveToEveryField) {
  const FlowKey base{{1, 1}, {2, 2}, IpProto::kTcp};
  FlowKey m = base;
  m.src.port = 3;
  EXPECT_NE(hash_flow(base), hash_flow(m));
  m = base;
  m.dst.addr = 9;
  EXPECT_NE(hash_flow(base), hash_flow(m));
  m = base;
  m.proto = IpProto::kUdp;
  EXPECT_NE(hash_flow(base), hash_flow(m));
}

TEST(FlowKey, SeedChangesHash) {
  const FlowKey f{{1, 1}, {2, 2}, IpProto::kTcp};
  EXPECT_NE(hash_flow(f, 1), hash_flow(f, 2));
}

TEST(FlowKey, HashSpreads) {
  std::unordered_set<std::uint64_t> hashes;
  for (std::uint16_t p = 0; p < 1000; ++p) {
    hashes.insert(hash_flow({{1, p}, {2, 80}, IpProto::kTcp}));
  }
  EXPECT_EQ(hashes.size(), 1000u);  // no collisions on this easy set
}

TEST(Packet, FlagsAndSizes) {
  Packet p;
  p.flags = tcpflag::kSyn | tcpflag::kAck;
  EXPECT_TRUE(p.has(tcpflag::kSyn));
  EXPECT_TRUE(p.has(tcpflag::kAck));
  EXPECT_FALSE(p.has(tcpflag::kFin));
  p.payload_len = 100;
  EXPECT_EQ(p.wire_size(), 152u);
  EXPECT_EQ(p.seq_len(), 101u);  // SYN consumes one
  p.flags |= tcpflag::kFin;
  EXPECT_EQ(p.seq_len(), 102u);
}

TEST(Packet, Format) {
  Packet p;
  p.flow = {{make_ipv4(10, 0, 0, 1), 5}, {make_ipv4(10, 1, 0, 1), 80},
            IpProto::kTcp};
  p.flags = tcpflag::kSyn;
  const auto s = format_packet(p);
  EXPECT_NE(s.find("10.0.0.1:5"), std::string::npos);
  EXPECT_NE(s.find("[S]"), std::string::npos);
}

// Copies `p` into a fresh slot of `pool`: the fabric moves only pooled refs.
PacketRef pooled(PacketPool& pool, const Packet& p) {
  PacketRef ref = pool.acquire();
  *ref = p;
  return ref;
}

class CollectingSink : public PacketSink {
 public:
  void handle_batch(PacketBatch&& batch) override {
    for (std::uint32_t i = 0; i < batch.size(); ++i) {
      packets.push_back(*batch[i]);
    }
  }
  std::vector<Packet> packets;
};

TEST(Link, SerializationDelayScalesWithSize) {
  Simulator sim;
  // 1 Gb/s: 1000 bytes = 8000 ns.
  Link link{sim, {1'000'000'000, 0, 0}};
  EXPECT_EQ(link.serialization_delay(1000), 8000);
  EXPECT_EQ(link.serialization_delay(1), 8);
}

// The formula serialization_delay used before its 64-bit fast path.
SimTime serialization_delay_128(std::uint64_t bytes, std::uint64_t bps) {
  const auto num = static_cast<__uint128_t>(bytes) * 8u * 1'000'000'000u;
  return std::max<SimTime>(static_cast<SimTime>((num + bps - 1) / bps), 1);
}

TEST(Link, SerializationDelayMatchesTheWideFormulaAtItsEdges) {
  Simulator sim;
  // The largest byte count whose bytes * 8e9 still fits in 64 bits.
  constexpr std::uint64_t kFits =
      std::numeric_limits<std::uint64_t>::max() / 8'000'000'000u;
  for (const std::uint64_t bps :
       {std::uint64_t{10'000'000'000}, std::uint64_t{1'000'000'000},
        std::uint64_t{999'999'937}, std::uint64_t{3},
        std::numeric_limits<std::uint64_t>::max()}) {
    Link link{sim, {bps, 0, 1'500'000}};
    for (const std::uint64_t bytes :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{1500},
          link.params().queue_bytes, kFits - 1, kFits, kFits + 1}) {
      EXPECT_EQ(link.serialization_delay(bytes),
                serialization_delay_128(bytes, bps))
          << "bytes=" << bytes << " bps=" << bps;
    }
  }
}

TEST(Link, DeliveryTimeIncludesPropAndSerialization) {
  Simulator sim;
  Link link{sim, {1'000'000'000, us(10), 0}};
  PacketPool pool;
  CollectingSink sink;
  Packet p;
  p.payload_len = 948;  // wire = 1000 bytes -> 8us serialization
  ASSERT_TRUE(link.transmit(pooled(pool, p), sink));
  sim.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sim.now(), us(18));
}

TEST(Link, BackToBackPacketsQueueBehindEachOther) {
  Simulator sim;
  Link link{sim, {1'000'000'000, 0, 0}};
  PacketPool pool;
  CollectingSink sink;
  Packet p;
  p.payload_len = 948;  // 8us each
  link.transmit(pooled(pool, p), sink);
  link.transmit(pooled(pool, p), sink);
  sim.run();
  EXPECT_EQ(sim.now(), us(16));  // second waits for the first
  EXPECT_EQ(sink.packets.size(), 2u);
}

TEST(Link, ExtraDelayAppliesToSubsequentPackets) {
  Simulator sim;
  Link link{sim, {1'000'000'000, 0, 0}};
  PacketPool pool;
  CollectingSink sink;
  link.set_extra_delay(ms(1));
  Packet p;
  p.payload_len = 948;
  link.transmit(pooled(pool, p), sink);
  sim.run();
  EXPECT_EQ(sim.now(), ms(1) + us(8));
}

TEST(Link, QueueOverflowDrops) {
  Simulator sim;
  // Queue of 2000 bytes at 1 Gb/s = 16us of backlog allowed.
  Link link{sim, {1'000'000'000, 0, 2000}};
  PacketPool pool;
  CollectingSink sink;
  Packet p;
  p.payload_len = 948;  // 8us serialization each
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (link.transmit(pooled(pool, p), sink)) ++accepted;
  }
  EXPECT_LT(accepted, 10);
  EXPECT_EQ(link.drops(), 10u - static_cast<unsigned>(accepted));
  sim.run();
  EXPECT_EQ(sink.packets.size(), static_cast<std::size_t>(accepted));
}

TEST(Link, QueueDropsOnlyWhenBacklogExceedsTheLimit) {
  Simulator sim;
  // 2000 bytes at 1 Gb/s: a 16us limit. A backlog equal to it still admits.
  Link link{sim, {1'000'000'000, 0, 2000}};
  ASSERT_EQ(link.serialization_delay(link.params().queue_bytes), us(16));
  PacketPool pool;
  CollectingSink sink;
  Packet p;
  p.payload_len = 948;  // 8us serialization each
  EXPECT_TRUE(link.transmit(pooled(pool, p), sink));   // backlog 0
  EXPECT_TRUE(link.transmit(pooled(pool, p), sink));   // backlog 8us
  EXPECT_TRUE(link.transmit(pooled(pool, p), sink));   // backlog 16us
  EXPECT_FALSE(link.transmit(pooled(pool, p), sink));  // backlog 24us
  sim.run_until(us(8) - 1);
  EXPECT_FALSE(link.transmit(pooled(pool, p), sink));  // backlog 16us + 1
  sim.run_until(us(8));
  EXPECT_TRUE(link.transmit(pooled(pool, p), sink));   // backlog 16us
  EXPECT_EQ(link.drops(), 2u);
  sim.run();
  EXPECT_EQ(sink.packets.size(), 4u);
}

TEST(Link, StatsCount) {
  Simulator sim;
  Link link{sim, {1'000'000'000, 0, 0}};
  PacketPool pool;
  CollectingSink sink;
  Packet p;
  p.payload_len = 100;
  link.transmit(pooled(pool, p), sink);
  EXPECT_EQ(link.tx_packets(), 1u);
  EXPECT_EQ(link.tx_bytes(), p.wire_size());
}

class EchoHost : public Host {
 public:
  using Host::Host;
  void handle_batch(PacketBatch&& batch) override {
    for (std::uint32_t i = 0; i < batch.size(); ++i) {
      received.push_back(*batch[i]);
    }
  }
  std::vector<Packet> received;
};

TEST(Network, RoutesByDeliveryAddress) {
  Simulator sim;
  Network net{sim};
  EchoHost a{sim, net, make_ipv4(10, 0, 0, 1), "a"};
  EchoHost b{sim, net, make_ipv4(10, 0, 0, 2), "b"};
  net.add_duplex_link(a.addr(), b.addr(), {1'000'000'000, us(5), 0});
  Packet p;
  p.flow = {{a.addr(), 1}, {b.addr(), 2}, IpProto::kTcp};
  a.send(pooled(net.pool(), p));
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_GT(b.received[0].pkt_id, 0u);
  EXPECT_EQ(b.received[0].sent_at, 0);
}

TEST(Network, SendToOverridesFlowDestination) {
  Simulator sim;
  Network net{sim};
  EchoHost a{sim, net, make_ipv4(10, 0, 0, 1), "a"};
  EchoHost b{sim, net, make_ipv4(10, 0, 0, 2), "b"};
  EchoHost c{sim, net, make_ipv4(10, 0, 0, 3), "c"};
  net.add_link(a.addr(), c.addr(), {1'000'000'000, us(5), 0});
  Packet p;
  // Flow says "to b", but we deliver to c — the LB forwarding pattern.
  p.flow = {{a.addr(), 1}, {b.addr(), 2}, IpProto::kTcp};
  a.send_to(c.addr(), pooled(net.pool(), p));
  sim.run();
  EXPECT_EQ(b.received.size(), 0u);
  ASSERT_EQ(c.received.size(), 1u);
  EXPECT_EQ(c.received[0].flow.dst.addr, b.addr());
}

TEST(Network, PacketIdsAreUniqueAndIncreasing) {
  Simulator sim;
  Network net{sim};
  EchoHost a{sim, net, 1, "a"};
  EchoHost b{sim, net, 2, "b"};
  net.add_link(1, 2, {1'000'000'000, 0, 0});
  Packet p;
  p.flow = {{1, 1}, {2, 2}, IpProto::kTcp};
  a.send(pooled(net.pool(), p));
  a.send(pooled(net.pool(), p));
  sim.run();
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_LT(b.received[0].pkt_id, b.received[1].pkt_id);
}

TEST(Network, DropCounting) {
  Simulator sim;
  Network net{sim};
  EchoHost a{sim, net, 1, "a"};
  EchoHost b{sim, net, 2, "b"};
  net.add_link(1, 2, {1'000'000'000, 0, 100});  // tiny queue
  Packet p;
  p.payload_len = 1400;
  p.flow = {{1, 1}, {2, 2}, IpProto::kTcp};
  for (int i = 0; i < 20; ++i) a.send(pooled(net.pool(), p));
  const NetStats stats = net.stats();
  EXPECT_GT(stats.packets_dropped, 0u);
  EXPECT_EQ(stats.packets_sent, 20u);
}

TEST(Network, HasLink) {
  Simulator sim;
  Network net{sim};
  EchoHost a{sim, net, 1, "a"};
  EchoHost b{sim, net, 2, "b"};
  net.add_link(1, 2, {});
  EXPECT_TRUE(net.has_link(1, 2));
  EXPECT_FALSE(net.has_link(2, 1));
}

TEST(Trace, RecordsAndFilters) {
  Simulator sim;
  Network net{sim};
  EchoHost a{sim, net, 1, "a"};
  EchoHost b{sim, net, 2, "b"};
  EchoHost c{sim, net, 3, "c"};
  net.add_link(1, 2, {});
  net.add_link(2, 3, {});
  TraceRecorder trace{net, /*vantage=*/2};
  Packet p;
  p.flow = {{1, 5}, {2, 6}, IpProto::kTcp};
  a.send(pooled(net.pool(), p));  // 1 -> 2 : vantage sees (arriving at 2)
  sim.run();
  Packet q;
  q.flow = {{2, 6}, {3, 7}, IpProto::kTcp};
  b.send(pooled(net.pool(), q));  // 2 -> 3 : vantage sees (departing 2)
  sim.run();
  EXPECT_EQ(trace.rows().size(), 2u);
}

TEST(Trace, SaveLoadRoundTrip) {
  Simulator sim;
  Network net{sim};
  EchoHost a{sim, net, 1, "a"};
  EchoHost b{sim, net, 2, "b"};
  net.add_link(1, 2, {1'000'000'000, us(3), 0});
  TraceRecorder trace{net};
  Packet p;
  p.flow = {{1, 1000}, {2, 80}, IpProto::kTcp};
  p.seq = 42;
  p.flags = tcpflag::kSyn;
  a.send(pooled(net.pool(), p));
  sim.run();

  const std::string path = testing::TempDir() + "/trace_roundtrip.csv";
  trace.save_csv(path);
  const auto rows = TraceRecorder::load_csv(path);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].flow, p.flow);
  EXPECT_EQ(rows[0].seq, 42u);
  EXPECT_EQ(rows[0].flags, tcpflag::kSyn);
  EXPECT_EQ(rows[0].hop_from, 1u);
  EXPECT_EQ(rows[0].hop_to, 2u);
}

TEST(Trace, LoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "/trace_bad.csv";
  {
    std::ofstream f{path};
    f << "header\nnot,a,valid,row\n";
  }
  EXPECT_THROW(TraceRecorder::load_csv(path), std::runtime_error);
}


// --- link jitter ---

TEST(LinkJitter, AddsDelayButKeepsFifoOrder) {
  Simulator sim;
  LinkParams params{1'000'000'000, us(10), 0, us(20), 1.5, 99};
  Link link{sim, params};
  PacketPool pool;
  CollectingSink sink;
  Packet p;
  p.payload_len = 100;
  for (std::uint32_t i = 0; i < 200; ++i) {
    p.seq = i;  // transmit order marker (no Network to stamp pkt_id)
    link.transmit(pooled(pool, p), sink);
  }
  while (sim.step()) {
  }
  ASSERT_EQ(sink.packets.size(), 200u);
  // Despite jitter, deliveries must preserve transmit (FIFO) order.
  for (std::size_t i = 1; i < sink.packets.size(); ++i) {
    EXPECT_LT(sink.packets[i - 1].seq, sink.packets[i].seq);
  }
}

TEST(LinkJitter, DelayStatistics) {
  Simulator sim;
  Link link{sim, {1'000'000'000, us(10), 0, us(20), 1.0, 5}};
  PacketPool pool;
  CollectingSink sink;
  std::vector<SimTime> deliveries;
  for (int i = 0; i < 200; ++i) {
    sim.run_until(i * ms(1));
    Packet p;
    p.payload_len = 948;  // base delay = 18us
    link.transmit(pooled(pool, p), sink);
    sim.run();  // drain: single delivery event
    deliveries.push_back(sim.now() - i * ms(1));
  }
  SimTime min_d = deliveries[0];
  SimTime max_d = deliveries[0];
  for (SimTime d : deliveries) {
    EXPECT_GE(d, us(18));  // never faster than base
    min_d = std::min(min_d, d);
    max_d = std::max(max_d, d);
  }
  EXPECT_GT(max_d, min_d + us(10));  // jitter is real
  // Median extra delay is in the ballpark of the configured median.
  std::sort(deliveries.begin(), deliveries.end());
  const SimTime median_extra = deliveries[deliveries.size() / 2] - us(18);
  EXPECT_GT(median_extra, us(10));
  EXPECT_LT(median_extra, us(40));
}

TEST(LinkJitter, DeterministicForSameSeed) {
  auto run = [](std::uint64_t seed) {
    Simulator sim;
    Link link{sim, {1'000'000'000, us(10), 0, us(20), 1.2, seed}};
    PacketPool pool;
    CollectingSink sink;
    Packet p;
    p.payload_len = 50;
    std::vector<SimTime> times;
    for (int i = 0; i < 50; ++i) link.transmit(pooled(pool, p), sink);
    while (!sim.stopped() && sim.step()) times.push_back(sim.now());
    return times;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(LinkJitter, ZeroJitterIsExact) {
  Simulator sim;
  Link link{sim, {1'000'000'000, us(10), 0, 0, 0.0, 1}};
  PacketPool pool;
  CollectingSink sink;
  Packet p;
  p.payload_len = 948;  // 8us serialization
  link.transmit(pooled(pool, p), sink);
  sim.run();
  EXPECT_EQ(sim.now(), us(18));
}

// --- packet pool ---

TEST(PacketPool, AcquireReleaseRecycles) {
  PacketPool pool;
  Packet* first;
  {
    PacketRef ref = pool.acquire();
    first = &*ref;
    ref->payload_len = 999;
  }
  EXPECT_EQ(pool.stats().outstanding, 0u);
  {
    // The freed slot comes back (LIFO freelist) and arrives reset.
    PacketRef ref = pool.acquire();
    EXPECT_EQ(&*ref, first);
    EXPECT_EQ(ref->payload_len, 0u);
  }
  EXPECT_EQ(pool.stats().acquired, 2u);
  EXPECT_EQ(pool.stats().released, 2u);
}

// --- payload ownership ---

// Counts live instances, so a test can see when the last ref let go.
struct LivePayload final : AppPayload {
  explicit LivePayload(int* live) : live_{live} { ++*live_; }
  ~LivePayload() override { --*live_; }
  int* live_;
};

struct LivePooled final : PooledPayload<LivePooled> {
  explicit LivePooled(int* live) : live_{live} { ++*live_; }
  LivePooled(const LivePooled& other)
      : PooledPayload{other}, live_{other.live_} {
    ++*live_;
  }
  ~LivePooled() override { --*live_; }
  int* live_;
};

TEST(PayloadRef, CopyMoveAndResetTrackTheCount) {
  int live = 0;
  PayloadRef a = make_payload<LivePayload>(&live);
  EXPECT_EQ(live, 1);
  EXPECT_EQ(a.use_count(), 1u);
  {
    PayloadRef b = a;
    EXPECT_EQ(a.use_count(), 2u);
    PayloadRef c = std::move(b);
    EXPECT_FALSE(b);
    EXPECT_EQ(c.get(), a.get());
    EXPECT_EQ(a.use_count(), 2u);
    PayloadRef d;
    d = c;
    EXPECT_EQ(a.use_count(), 3u);
    d = PayloadRef{};
    EXPECT_EQ(a.use_count(), 2u);
  }
  EXPECT_EQ(a.use_count(), 1u);
  a = a;  // self-assignment keeps the ref
  EXPECT_EQ(a.use_count(), 1u);
  a.reset();
  EXPECT_FALSE(a);
  EXPECT_EQ(live, 0);
  a.reset();  // resetting an empty handle is a no-op
}

TEST(MsgList, CopyAndMoveAdjustPayloadCounts) {
  int live = 0;
  const PayloadRef p = make_payload<LivePayload>(&live);
  {
    MessageRef m{10, p};
    EXPECT_EQ(p.use_count(), 2u);
    MessageRef moved = std::move(m);
    EXPECT_FALSE(m.payload);
    EXPECT_EQ(p.use_count(), 2u);
  }
  EXPECT_EQ(p.use_count(), 1u);
  // Inline (two refs) and spilled (three refs) lists alike.
  for (const std::uint32_t n : {2u, 3u}) {
    MsgList list;
    for (std::uint32_t i = 0; i < n; ++i) list.push_msg({i, p});
    EXPECT_EQ(p.use_count(), 1 + n);
    MsgList copy = list;
    EXPECT_EQ(p.use_count(), 1 + 2 * n);
    MsgList moved = std::move(copy);
    EXPECT_TRUE(copy.empty());
    EXPECT_EQ(p.use_count(), 1 + 2 * n);
    copy = moved;
    EXPECT_EQ(p.use_count(), 1 + 3 * n);
    moved = std::move(copy);  // the overwritten list's refs drop
    EXPECT_EQ(p.use_count(), 1 + 2 * n);
    moved.clear();
    EXPECT_EQ(p.use_count(), 1 + n);
    moved.clear();  // clearing an empty list is a no-op
    EXPECT_EQ(p.use_count(), 1 + n);
  }
  EXPECT_EQ(p.use_count(), 1u);
  EXPECT_EQ(live, 1);
}

TEST(PayloadPool, RecyclesStorageOfTheLastDroppedObject) {
  int live = 0;
  PayloadPool<LivePooled> pool;
  PayloadRef a = pool.make(&live);
  const AppPayload* first = a.get();
  EXPECT_EQ(pool.free_blocks(), 0u);
  PayloadRef b = a;
  a.reset();
  EXPECT_EQ(pool.free_blocks(), 0u);  // b still holds it
  b.reset();
  EXPECT_EQ(live, 0);  // destroyed...
  EXPECT_EQ(pool.free_blocks(), 1u);  // ...and its storage kept
  PayloadRef c = pool.make(&live);
  EXPECT_EQ(c.get(), first);
  EXPECT_EQ(pool.free_blocks(), 0u);
  EXPECT_EQ(live, 1);
}

TEST(PayloadPool, PayloadOutlivingItsPoolIsFreedByItsLastRef) {
  int live = 0;
  PayloadRef survivor;
  {
    PayloadPool<LivePooled> pool;
    survivor = pool.make(&live);
    PayloadRef returned = pool.make(&live);
  }  // pool gone with one object still out: its state is orphaned
  EXPECT_EQ(live, 1);
  EXPECT_EQ(survivor.use_count(), 1u);
  survivor.reset();  // frees the object and the orphaned state (LSan)
  EXPECT_EQ(live, 0);
}

TEST(PayloadPool, CopiesOfPooledPayloadsAreNotPooled) {
  int live = 0;
  PayloadPool<LivePooled> pool;
  PayloadRef pooled = pool.make(&live);
  PayloadRef copy = make_payload<LivePooled>(payload_as<LivePooled>(pooled));
  EXPECT_EQ(live, 2);
  EXPECT_EQ(pooled.use_count(), 1u);  // the copy starts its own count
  EXPECT_EQ(copy.use_count(), 1u);
  copy.reset();
  EXPECT_EQ(live, 1);
  EXPECT_EQ(pool.free_blocks(), 0u);  // deleted, not returned to the pool
  pooled.reset();
  EXPECT_EQ(pool.free_blocks(), 1u);
}

TEST(PayloadRef, PayloadAsChecksTheExactType) {
  int live = 0;
  const PayloadRef p = make_payload<LivePayload>(&live);
  EXPECT_EQ(payload_as<LivePayload>(p).live_, &live);
  EXPECT_DEATH(payload_as<LivePooled>(p), "expected type");
  EXPECT_DEATH(payload_as<LivePayload>(PayloadRef{}), "expected type");
}

TEST(PacketPool, ReleaseDropsPayloadsAndAcquireResetsTheHeader) {
  int live = 0;
  PacketPool pool;
  Packet* slot;
  {
    PacketRef ref = pool.acquire();
    slot = &*ref;
    ref->flow = {{make_ipv4(10, 0, 0, 1), 5}, {make_ipv4(10, 1, 0, 1), 80},
                 IpProto::kTcp};
    ref->seq = 1;
    ref->ack = 2;
    ref->wnd = 3;
    ref->flags = tcpflag::kAck;
    ref->payload_len = 4;
    ref->ts_val = 5;
    ref->ts_ecr = 6;
    ref->pkt_id = 7;
    ref->sent_at = 8;
    ref->msgs.push_msg({4, make_payload<LivePayload>(&live)});
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(live, 0);  // dropped at release, not at reuse
  PacketRef ref = pool.acquire();
  ASSERT_EQ(&*ref, slot);
  const Packet fresh;
  EXPECT_EQ(ref->flow, fresh.flow);
  EXPECT_EQ(ref->seq, fresh.seq);
  EXPECT_EQ(ref->ack, fresh.ack);
  EXPECT_EQ(ref->wnd, fresh.wnd);
  EXPECT_EQ(ref->flags, fresh.flags);
  EXPECT_EQ(ref->payload_len, fresh.payload_len);
  EXPECT_EQ(ref->ts_val, fresh.ts_val);
  EXPECT_EQ(ref->ts_ecr, fresh.ts_ecr);
  EXPECT_EQ(ref->pkt_id, fresh.pkt_id);
  EXPECT_EQ(ref->sent_at, fresh.sent_at);
  EXPECT_TRUE(ref->msgs.empty());
}

TEST(PacketPool, ExhaustionGrowsByChunkAndRecyclesAfter) {
  PacketPool pool;
  std::vector<PacketRef> refs;
  const std::uint64_t chunk = PacketPool::kChunkPackets;
  for (std::uint64_t i = 0; i < chunk + 1; ++i) refs.push_back(pool.acquire());
  EXPECT_EQ(pool.stats().slots, 2 * chunk);  // second slab after exhaustion
  EXPECT_EQ(pool.stats().outstanding, chunk + 1);
  EXPECT_EQ(pool.stats().high_water, chunk + 1);
  refs.clear();
  EXPECT_EQ(pool.stats().outstanding, 0u);
  // Re-acquiring the same working set touches no new slab.
  for (std::uint64_t i = 0; i < chunk + 1; ++i) refs.push_back(pool.acquire());
  EXPECT_EQ(pool.stats().slots, 2 * chunk);
  EXPECT_EQ(pool.stats().high_water, chunk + 1);
}

TEST(PacketBatch, PushTakeClear) {
  PacketPool pool;
  PacketBatch batch;
  EXPECT_TRUE(batch.empty());
  for (std::uint32_t i = 0; i < PacketBatch::kCapacity; ++i) {
    PacketRef ref = pool.acquire();
    ref->seq = i;
    batch.push(std::move(ref));
  }
  EXPECT_TRUE(batch.full());
  PacketRef taken = batch.take(3);
  EXPECT_EQ(taken->seq, 3u);
  taken.reset();
  EXPECT_EQ(pool.stats().outstanding, PacketBatch::kCapacity - 1);
  batch.clear();  // releases every remaining ref back to the pool
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

// --- batch send path ---

// Host that records per-packet arrival (id, time, carrying-batch size)
// through the native batch entry point.
class BatchRecordingHost : public Host {
 public:
  using Host::Host;
  struct Arrival {
    std::uint64_t pkt_id;
    SimTime at;
    std::uint32_t batch_size;
  };
  void handle_batch(PacketBatch&& batch) override {
    for (std::uint32_t i = 0; i < batch.size(); ++i) {
      arrivals.push_back({batch[i]->pkt_id, sim().now(), batch.size()});
    }
  }
  std::vector<Arrival> arrivals;
};

// Drives the same interleaved batch/single-send traffic through the new batch
// path (real simulator) and the pre-redesign per-packet oracle, over a
// jittered, queue-limited link. Delivery times, order, and drop counts must
// match bit-for-bit — the redesign's core contract.
TEST(PacketBatchPath, MatchesLegacyScalarTiming) {
  const LinkParams params{1'000'000'000, us(10), 3000, us(5), 0.8, 1234};
  Simulator sim;
  Network net{sim};
  BatchRecordingHost a{sim, net, 1, "a"};
  BatchRecordingHost b{sim, net, 2, "b"};
  net.add_link(1, 2, params);
  LegacyScalarSendPath oracle{params};

  const FlowKey flow{{1, 1000}, {2, 80}, IpProto::kTcp};
  SimTime t = 0;
  for (int round = 0; round < 200; ++round) {
    t += us(1) + (round % 7) * 100;
    sim.run_until(t);
    const std::uint32_t n =
        1 + static_cast<std::uint32_t>(round) % PacketBatch::kCapacity;
    PacketBatch batch;
    for (std::uint32_t j = 0; j < n; ++j) {
      PacketRef ref = net.pool().acquire();
      ref->flow = flow;
      ref->payload_len = (static_cast<std::uint32_t>(round) * 37 + j * 11) % 1000;
      batch.push(std::move(ref));
    }
    for (std::uint32_t j = 0; j < n; ++j) {
      Packet probe;
      probe.payload_len = (static_cast<std::uint32_t>(round) * 37 + j * 11) % 1000;
      oracle.send(t, probe.wire_size());
    }
    a.send_batch(2, batch);
    if (round % 3 == 0) {
      // Interleave a single send: a batch of one on the same pkt_id counter
      // and link FIFO.
      PacketRef p = net.pool().acquire();
      p->flow = flow;
      p->payload_len = 200;
      a.send(std::move(p));
      Packet probe;
      probe.payload_len = 200;
      oracle.send(t, probe.wire_size());
    }
  }
  sim.run();
  oracle.release_held(sim.now());

  const auto& expected = oracle.deliveries();
  ASSERT_EQ(b.arrivals.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(b.arrivals[i].pkt_id, expected[i].pkt_id) << "at index " << i;
    EXPECT_EQ(b.arrivals[i].at, expected[i].deliver_at) << "at index " << i;
  }
  const NetStats stats = net.stats();
  EXPECT_EQ(stats.packets_sent, oracle.packets_sent());
  EXPECT_EQ(stats.packets_dropped, oracle.packets_dropped());
}

// Deterministic per-packet verdicts keyed on the stamped pkt_id: both paths
// stamp the same id sequence, so both apply the same drop/hold/duplicate
// pattern. Exercises BatchVerdict dispatch (drop recycles the slot, holds
// re-clock through the simulator, duplicates ride pooled clones).
class PatternInterceptor : public SendInterceptor {
 public:
  SendVerdict on_send(const Packet& pkt, Ipv4, Ipv4) override {
    return verdict_for(pkt.pkt_id);
  }
  static SendVerdict verdict_for(std::uint64_t id) {
    SendVerdict v;
    if (id % 5 == 0) v.drop = true;
    if (id % 7 == 0) v.hold = us(3) + 1;
    if (id % 11 == 0) v.duplicate_hold = us(2) + 1;
    return v;
  }
};

TEST(PacketBatchPath, BatchVerdictsMatchLegacyScalarPath) {
  const LinkParams params{1'000'000'000, us(10), 0, 0, 0.0, 1};
  Simulator sim;
  Network net{sim};
  BatchRecordingHost a{sim, net, 1, "a"};
  BatchRecordingHost b{sim, net, 2, "b"};
  net.add_link(1, 2, params);
  PatternInterceptor interceptor;
  net.set_interceptor(&interceptor);
  LegacyScalarSendPath oracle{params};

  const FlowKey flow{{1, 1000}, {2, 80}, IpProto::kTcp};
  SimTime t = 0;
  std::uint64_t oracle_id = 1;  // mirrors Network's pkt_id stamping
  for (int round = 0; round < 100; ++round) {
    t += us(1) + (round % 5) * 100;
    sim.run_until(t);
    const std::uint32_t n = 1 + static_cast<std::uint32_t>(round) % 13;
    PacketBatch batch;
    for (std::uint32_t j = 0; j < n; ++j) {
      PacketRef ref = net.pool().acquire();
      ref->flow = flow;
      ref->payload_len = 100;
      batch.push(std::move(ref));
    }
    a.send_batch(2, batch);
    for (std::uint32_t j = 0; j < n; ++j) {
      Packet probe;
      probe.payload_len = 100;
      oracle.send(t, probe.wire_size(),
                  PatternInterceptor::verdict_for(oracle_id++));
    }
  }
  sim.run();
  oracle.release_held(sim.now());

  const auto& expected = oracle.deliveries();
  ASSERT_EQ(b.arrivals.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(b.arrivals[i].pkt_id, expected[i].pkt_id) << "at index " << i;
    EXPECT_EQ(b.arrivals[i].at, expected[i].deliver_at) << "at index " << i;
  }
  // Dropped ids never arrive; duplicated ids arrive twice.
  std::uint64_t dup_arrivals = 0;
  for (const auto& arr : b.arrivals) {
    EXPECT_NE(arr.pkt_id % 5, 0u);
    if (arr.pkt_id % 11 == 0) ++dup_arrivals;
  }
  EXPECT_GT(dup_arrivals, 0u);
  EXPECT_EQ(dup_arrivals % 2, 0u);
  net.set_interceptor(nullptr);
}

TEST(PacketBatchPath, NetStatsTracksBatchesAndPool) {
  Simulator sim;
  Network net{sim};
  BatchRecordingHost a{sim, net, 1, "a"};
  BatchRecordingHost b{sim, net, 2, "b"};
  net.add_link(1, 2, {1'000'000'000, us(5), 0});
  for (std::uint32_t n : {3u, 7u, 2u}) {
    PacketBatch batch;
    for (std::uint32_t j = 0; j < n; ++j) {
      PacketRef ref = net.pool().acquire();
      ref->flow = {{1, 1}, {2, 2}, IpProto::kTcp};
      batch.push(std::move(ref));
    }
    a.send_batch(2, batch);
  }
  // Single sends are batches of one: they land in the same batch counters.
  for (int k = 0; k < 5; ++k) {
    PacketRef ref = net.pool().acquire();
    ref->flow = {{1, 1}, {2, 2}, IpProto::kTcp};
    EXPECT_TRUE(a.send(std::move(ref)));
  }
  sim.run();
  const NetStats stats = net.stats();
  EXPECT_EQ(stats.packets_sent, 17u);
  EXPECT_EQ(stats.batches, 8u);
  EXPECT_EQ(stats.batch_packets, stats.packets_sent);
  EXPECT_EQ(stats.max_batch, 7u);
  EXPECT_EQ(stats.pool.outstanding, 0u);
  EXPECT_GE(stats.pool.high_water, 7u);
  EXPECT_EQ(stats.pool.acquired, stats.pool.released);
}

}  // namespace
}  // namespace inband
