// Allocation-count assertions for the dataplane hot paths.
//
// This binary links util/alloc_counter.cc (global operator new/delete
// replacements), so every heap allocation in the process is counted. The
// tests warm a hot path up to its steady state, snapshot the counter, run
// many more iterations, and require the delta to be exactly zero — the
// acceptance bar for the slab event pool and the eviction-index flow table.
// Under sanitizers the replacement operators are compiled out (the sanitizer
// runtime owns those symbols) and the tests skip.
#include <gtest/gtest.h>

#include <execinfo.h>

#include <cstdint>

#include "core/inband_lb_policy.h"
#include "core/server_latency_tracker.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "scenario/cluster_rig.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "util/alloc_counter.h"
#include "util/open_hash_map.h"
#include "util/time.h"

namespace inband {
namespace {

#define SKIP_UNLESS_COUNTING()                                        \
  if (!allocs::counting_enabled()) {                                  \
    GTEST_SKIP() << "allocation counting disabled (sanitizer build)"; \
  }

// Stand-in for the dominant event payload: a link-delivery closure carrying
// a PacketSink pointer and a pooled PacketRef.
struct FakeDelivery {
  unsigned char handle_bytes[24];  // sink* + PacketRef{state*, pkt*}
  std::uint64_t* fired;
  void operator()() { ++*fired; }
};
static_assert(EventCallback::fits_inline<FakeDelivery>());

TEST(AllocFree, EventQueueSteadyStatePushPop) {
  SKIP_UNLESS_COUNTING();
  EventQueue q;
  std::uint64_t fired = 0;
  SimTime t = 0;
  const auto push_one = [&](SimTime at) {
    q.push(at, FakeDelivery{{}, &fired});
  };
  for (int i = 0; i < 128; ++i) push_one(t + i);
  // Warm-up: lets the pool, every wheel bucket, and the far heap reach
  // their capacity high-water marks. A ring bucket is first touched when
  // the cursor first enters its time range, so the warm-up must cover a
  // full level-1 ring cycle (2^18 ticks at one tick per event).
  for (int i = 0; i < 300000; ++i) {
    t = q.fire_next([](SimTime) {});
    push_one(t + 128);
  }
  const auto before = allocs::snapshot();
  for (int i = 0; i < 100000; ++i) {
    t = q.fire_next([](SimTime) {});
    push_one(t + 128);
  }
  const auto delta = allocs::delta(before, allocs::snapshot());
  EXPECT_EQ(delta.count, 0u) << delta.bytes << " bytes allocated";
  EXPECT_EQ(fired, 400000u);
}

TEST(AllocFree, EventQueueCancelRecycle) {
  SKIP_UNLESS_COUNTING();
  EventQueue q;
  std::uint64_t fired = 0;
  SimTime t = 0;
  EventId pending = kInvalidEventId;
  const auto cycle = [&] {
    // Schedule a "timeout", cancel it, and fire one real event. TCP still
    // cancels timers this way for delayed ACKs (§5 ablation), at TIME_WAIT
    // entry and teardown, and on the first retransmit re-arm after the
    // handshake, when rto_ falls below the 50 ms initial value.
    const EventId timeout = q.push(t + 1000, FakeDelivery{{}, &fired});
    if (pending != kInvalidEventId) q.cancel(pending);
    pending = timeout;
    q.push(t + 10, FakeDelivery{{}, &fired});
    t = q.fire_next([](SimTime) {});
  };
  // Warm-up covers two full level-1 ring cycles (time advances ~10 ticks
  // per cycle) so every bucket has seen its worst-case load once.
  for (int i = 0; i < 60000; ++i) cycle();
  const auto before = allocs::snapshot();
  for (int i = 0; i < 100000; ++i) cycle();
  EXPECT_EQ(allocs::delta(before, allocs::snapshot()).count, 0u);
}

TEST(AllocFree, SimulatorSelfReschedulingChain) {
  SKIP_UNLESS_COUNTING();
  Simulator sim;
  std::uint64_t ticks = 0;
  struct Tick {
    Simulator* sim;
    std::uint64_t* ticks;
    void operator()() {
      ++*ticks;
      sim->schedule_after(us(5), Tick{sim, ticks});
    }
  };
  sim.schedule_at(0, Tick{&sim, &ticks});
  for (int i = 0; i < 1000; ++i) sim.step();
  const auto before = allocs::snapshot();
  for (int i = 0; i < 100000; ++i) sim.step();
  EXPECT_EQ(allocs::delta(before, allocs::snapshot()).count, 0u);
  EXPECT_EQ(ticks, 101000u);
}

TEST(AllocFree, InbandPolicySteadyStatePacketLoop) {
  SKIP_UNLESS_COUNTING();
  BackendPool pool;
  for (int i = 0; i < 8; ++i) {
    pool.push_back({static_cast<BackendId>(i), "backend" + std::to_string(i),
                    make_ipv4(10, 2, 0, static_cast<std::uint8_t>(1 + i)), 1,
                    true});
  }
  InbandPolicyConfig cfg;
  cfg.maglev_table_size = 65537;
  InbandLbPolicy policy{pool, cfg};
  Packet pkt;
  pkt.payload_len = 100;
  const auto flow_n = [](std::uint32_t n) {
    return FlowKey{{make_ipv4(10, 0, 0, 1 + (n & 0x3f)),
                    static_cast<std::uint16_t>(1024 + (n % 50000))},
                   {make_ipv4(10, 1, 0, 1), 80},
                   IpProto::kTcp};
  };
  SimTime t = 0;
  std::uint32_t i = 0;
  const auto one_packet = [&] {
    ++i;
    t += us(5);
    pkt.flow = flow_n(i % 64);
    policy.on_packet(pkt, i % 8, t, false);
  };
  // Warm-up: flow table filled, estimator ladders built, tracker windows
  // and controller scratch at capacity, at least one sweep and eviction
  // index compaction behind us (64 flows * 5us spans several sweep
  // intervals over 400k packets = 2s simulated).
  for (int n = 0; n < 400000; ++n) one_packet();
  const auto before = allocs::snapshot();
  for (int n = 0; n < 200000; ++n) one_packet();
  const auto delta = allocs::delta(before, allocs::snapshot());
  EXPECT_EQ(delta.count, 0u) << delta.bytes << " bytes allocated";
}

TEST(AllocFree, InbandPolicyFlowCloseRecyclesEstimatorState) {
  // Connection churn through the policy: each flow sends a few packets and
  // closes. The close frees the flow's slab entry with its estimator
  // vectors' capacity, so the next flow starts without allocating.
  SKIP_UNLESS_COUNTING();
  BackendPool pool;
  for (int i = 0; i < 4; ++i) {
    pool.push_back({static_cast<BackendId>(i), "backend" + std::to_string(i),
                    make_ipv4(10, 2, 0, static_cast<std::uint8_t>(1 + i)), 1,
                    true});
  }
  InbandLbPolicy policy{pool};
  Packet pkt;
  pkt.payload_len = 100;
  SimTime t = 0;
  std::uint16_t next_port = 1024;
  const auto one_flow = [&] {
    pkt.flow = FlowKey{{make_ipv4(10, 0, 0, 1), next_port},
                       {make_ipv4(10, 1, 0, 1), 80},
                       IpProto::kTcp};
    next_port = next_port >= 60000 ? std::uint16_t{1024}
                                   : static_cast<std::uint16_t>(next_port + 1);
    const BackendId b = policy.pick(pkt.flow, t);
    for (int k = 0; k < 4; ++k) {
      t += us(100);
      policy.on_packet(pkt, b, t, k == 0);
    }
    policy.on_flow_closed(pkt.flow, b, t);
  };
  for (int n = 0; n < 20000; ++n) one_flow();
  ASSERT_EQ(policy.tracked_flows(), 0u);
  const auto before = allocs::snapshot();
  for (int n = 0; n < 20000; ++n) one_flow();
  const auto delta = allocs::delta(before, allocs::snapshot());
  EXPECT_EQ(delta.count, 0u) << delta.bytes << " bytes allocated";
  EXPECT_EQ(policy.tracked_flows(), 0u);
  EXPECT_GT(policy.samples_total(), 0u);
}

// The default EWMA tracker keeps one small record per backend. The p95
// mode's sliding windows (nine histograms, ~134 KB per backend) are built
// only when that mode is selected.
TEST(AllocBudget, EwmaTrackerConstructionIsSmall) {
  SKIP_UNLESS_COUNTING();
  const auto before = allocs::snapshot();
  {
    ServerLatencyTracker tracker{16};
    EXPECT_EQ(tracker.backend_count(), 16u);
  }
  const auto delta = allocs::delta(before, allocs::snapshot());
  EXPECT_LT(delta.bytes, 16u * 1024u) << delta.count << " allocations";
}

TEST(AllocFree, PacketPoolSteadyStateAcquireRelease) {
  SKIP_UNLESS_COUNTING();
  PacketPool pool;
  // Warm-up: force one slab and cycle a batch through it once.
  {
    PacketBatch batch;
    while (!batch.full()) batch.push(pool.acquire());
  }
  const auto before = allocs::snapshot();
  for (int n = 0; n < 100000; ++n) {
    PacketBatch batch;
    while (!batch.full()) {
      PacketRef ref = pool.acquire();
      ref->payload_len = 100;
      batch.push(std::move(ref));
    }
    // Refs die with the batch; slots recycle through the freelist.
  }
  const auto delta = allocs::delta(before, allocs::snapshot());
  EXPECT_EQ(delta.count, 0u) << delta.bytes << " bytes allocated";
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

// The flat per-packet tables (conntrack, TCP demux, flow state) churn one
// insert and one erase per connection at a roughly constant live size.
// Backward-shift deletion leaves no tombstones to clean up, so once the
// table has grown to fit the live set, churn never touches the allocator —
// erase_if sweeps included.
TEST(AllocFree, OpenHashMapChurnAtConstantSize) {
  SKIP_UNLESS_COUNTING();
  constexpr std::uint64_t kLive = 1000;
  OpenHashMap<FlowKey, std::uint64_t> map;
  const auto key = [](std::uint64_t n) {
    return FlowKey{{static_cast<Ipv4>(0x0a000000 + (n >> 16)),
                    static_cast<std::uint16_t>(n)},
                   {0x0a010001, 11211},
                   IpProto::kTcp};
  };
  std::uint64_t next = 0;
  const auto churn = [&](std::uint64_t rounds) {
    for (std::uint64_t i = 0; i < rounds; ++i, ++next) {
      map.try_emplace(key(next), next);
      if (next >= kLive) map.erase(key(next - kLive));
      if (next % 4096 == 0) {
        // Sweep-style erase_if that drops nothing.
        map.erase_if([&](const auto& kv) { return kv.second > next; });
      }
    }
  };
  churn(10 * kLive);  // warm-up: grow to the live set's capacity
  const std::size_t capacity = map.capacity();
  const auto before = allocs::snapshot();
  churn(200000);
  const auto delta = allocs::delta(before, allocs::snapshot());
  EXPECT_EQ(delta.count, 0u) << delta.bytes << " bytes allocated";
  EXPECT_EQ(map.size(), kLive);
  EXPECT_EQ(map.capacity(), capacity);
}

// The acceptance bar for the batch redesign: the whole fig-3 rig — clients,
// LB (conntrack + in-band policy), servers, TCP both ways, links — runs a
// steady-state window without touching the allocator at all. Churn sources
// are configured off (no connection churn, no share sampling, no periodic
// audit, saturated keyspace so the KV store stops inserting) and the
// record vector is pre-reserved; everything that remains per packet must
// come from recycled pools.
TEST(AllocFree, Fig3RigSteadyStateZeroAllocs) {
  SKIP_UNLESS_COUNTING();
  ClusterRigConfig cfg;
  cfg.duration = ms(600);
  cfg.inject_time = ms(100);
  cfg.inject_extra = us(200);
  cfg.share_sample_interval = 0;  // sampler allocates a share vector per tick
  cfg.audit_interval = 0;         // audit scratch is not steady-state
  cfg.client.connections = 2;
  cfg.client.pipeline = 4;
  cfg.client.requests_per_conn = 0;  // no connection churn
  cfg.client.keyspace = 16;          // saturates quickly: store_ stops growing
  cfg.client.value_len = 64;
  cfg.reserve_records = 1 << 20;
  ClusterRig rig{cfg};

  rig.start();
  // Warm-up: handshakes done, store_ fully populated, pools / rings /
  // hash tables at their high-water marks, delay injection behind us.
  rig.run_until(ms(300));
  // Any allocation inside the window is a failure; print where it came
  // from. backtrace() itself may allocate on first use (libgcc init), so
  // prime it before arming the hook.
  {
    void* prime[4];
    backtrace(prime, 4);
  }
  allocs::set_alloc_hook(+[](std::size_t bytes) {
    void* frames[16];
    const int n = backtrace(frames, 16);
    fprintf(stderr, "steady-state allocation of %zu bytes at:\n", bytes);
    backtrace_symbols_fd(frames, n, 2);
  });
  const auto before = allocs::snapshot();
  rig.run_until(ms(550));
  const auto delta = allocs::delta(before, allocs::snapshot());
  allocs::set_alloc_hook(nullptr);
  rig.finish();

  const auto stats = rig.net().stats();
  EXPECT_GT(stats.packets_sent, 10000u);
  EXPECT_EQ(delta.count, 0u)
      << delta.bytes << " bytes allocated across "
      << stats.packets_sent << " packets";
  EXPECT_GT(stats.pool.high_water, 0u);
}

}  // namespace
}  // namespace inband
