// PERF — microbenchmarks of the per-packet dataplane cost (§2.4: LBs are
// operationally CPU-bound, so in-band measurement must be cheap).
//
// google-benchmark binary: measures the per-packet cost of Algorithm 1, the
// k=7 ensemble of Algorithm 2, the per-flow state lookup, conntrack, Maglev
// lookup, the whole InbandLbPolicy::on_packet path (also with the handshake
// bootstrap on), and Maglev table builds.
//
// The *_Legacy variants run the pre-pool reference implementations from
// check/reference_models.h on the identical op sequence, so a single run
// reports the slab-pool speedup as a same-machine ratio. Hot-loop benchmarks
// also report "allocs_per_iter" via the counting allocator linked into this
// binary (0 in steady state is the contract; the counter reads 0 with a
// "counting" flag when a sanitizer owns operator new).
#include <benchmark/benchmark.h>

#include "check/reference_models.h"
#include "core/ensemble_timeout.h"
#include "core/fixed_timeout.h"
#include "core/flow_state_table.h"
#include "core/inband_lb_policy.h"
#include "lb/conntrack.h"
#include "lb/maglev.h"
#include "sim/event_queue.h"
#include "util/alloc_counter.h"

namespace inband {
namespace {

// Tracks heap allocations across the timed loop and attaches per-iteration
// counters. Call arm() immediately before the loop (after setup allocations)
// and report() after it.
class AllocMeter {
 public:
  void arm() { before_ = allocs::snapshot(); }
  void report(benchmark::State& state) {
    const auto d = allocs::delta(before_, allocs::snapshot());
    const auto iters = static_cast<double>(state.iterations());
    state.counters["allocs_per_iter"] = benchmark::Counter(
        iters > 0 ? static_cast<double>(d.count) / iters : 0.0);
    state.counters["alloc_counting"] =
        benchmark::Counter(allocs::counting_enabled() ? 1.0 : 0.0);
  }

 private:
  allocs::Snapshot before_;
};

BackendPool make_pool(int n) {
  BackendPool pool;
  for (int i = 0; i < n; ++i) {
    pool.push_back({static_cast<BackendId>(i), "backend" + std::to_string(i),
                    make_ipv4(10, 2, 0, static_cast<std::uint8_t>(1 + i)), 1,
                    true});
  }
  return pool;
}

FlowKey flow_n(std::uint32_t n) {
  return {{make_ipv4(10, 0, 0, 1 + (n & 0x3f)),
           static_cast<std::uint16_t>(1024 + (n % 50000))},
          {make_ipv4(10, 1, 0, 1), 80},
          IpProto::kTcp};
}

void BM_FixedTimeout_OnPacket(benchmark::State& state) {
  FixedTimeout ft{us(256)};
  FixedTimeoutState s;
  SimTime t = 0;
  for (auto _ : state) {
    t += us(50);
    benchmark::DoNotOptimize(ft.on_packet(s, t));
  }
}
BENCHMARK(BM_FixedTimeout_OnPacket);

void BM_Ensemble_OnPacket(benchmark::State& state) {
  EnsembleTimeout est{{}};
  EnsembleState s;
  SimTime t = 0;
  for (auto _ : state) {
    t += us(50);
    benchmark::DoNotOptimize(est.on_packet(s, t));
  }
}
BENCHMARK(BM_Ensemble_OnPacket);

void BM_FlowTable_GetOrCreate(benchmark::State& state) {
  FlowStateTable table;
  // Pre-populate a working set.
  const auto flows = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < flows; ++i) table.get_or_create(flow_n(i), 0);
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.get_or_create(flow_n(i++ % flows), 1));
  }
}
BENCHMARK(BM_FlowTable_GetOrCreate)->Arg(1024)->Arg(65536);

void BM_Conntrack_Lookup(benchmark::State& state) {
  ConnTracker ct;
  const auto flows = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < flows; ++i) ct.insert(flow_n(i), i % 4, 0);
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ct.lookup(flow_n(i++ % flows), 1));
  }
}
BENCHMARK(BM_Conntrack_Lookup)->Arg(1024)->Arg(65536);

void BM_Maglev_Lookup(benchmark::State& state) {
  MaglevTable table{65537};
  table.build(make_pool(8));
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(flow_n(i++)));
  }
}
BENCHMARK(BM_Maglev_Lookup);

void BM_Maglev_Build(benchmark::State& state) {
  const auto pool = make_pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    MaglevTable table{65537};
    table.build(pool);
    benchmark::DoNotOptimize(table.raw_table().data());
  }
}
BENCHMARK(BM_Maglev_Build)->Arg(2)->Arg(16)->Arg(128)->Unit(
    benchmark::kMillisecond);

void BM_Maglev_ShiftSlots(benchmark::State& state) {
  MaglevTable table{65537};
  const auto pool = make_pool(8);
  table.build(pool);
  for (auto _ : state) {
    table.shift_slots(0, 0.01);
    // Rebuild occasionally so backend 0 does not run dry.
    if (table.slots_owned(0) < 656) {
      state.PauseTiming();
      table.build(pool);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_Maglev_ShiftSlots);

void BM_InbandPolicy_OnPacket(benchmark::State& state) {
  InbandPolicyConfig cfg;
  cfg.maglev_table_size = 65537;
  InbandLbPolicy policy{make_pool(8), cfg};
  Packet pkt;
  pkt.payload_len = 100;
  const auto flows = static_cast<std::uint32_t>(state.range(0));
  SimTime t = 0;
  std::uint32_t i = 0;
  for (auto _ : state) {
    ++i;
    t += us(5);
    pkt.flow = flow_n(i % flows);
    policy.on_packet(pkt, i % 8, t, false);
  }
  state.counters["samples"] =
      static_cast<double>(policy.samples_total());
}
BENCHMARK(BM_InbandPolicy_OnPacket)->Arg(64)->Arg(4096);

// The handshake bootstrap as the policy runs it: per iteration one flow's
// SYN and its handshake ACK (which yields the sample), then the flow closes,
// so the flow table stays as small as a handshake-only stream keeps it.
void BM_HandshakeRtt_OnPacket(benchmark::State& state) {
  InbandPolicyConfig cfg;
  cfg.maglev_table_size = 65537;
  cfg.use_handshake_bootstrap = true;
  InbandLbPolicy policy{make_pool(8), cfg};
  SimTime t = 0;
  std::uint32_t i = 0;
  Packet syn;
  syn.flags = tcpflag::kSyn;
  Packet ack;
  ack.flags = tcpflag::kAck;
  for (auto _ : state) {
    ++i;
    t += us(10);
    syn.flow = ack.flow = flow_n(i);
    policy.on_packet(syn, i % 8, t, true);
    policy.on_packet(ack, i % 8, t + us(100), false);
    policy.on_flow_closed(syn.flow, i % 8, t + us(100));
  }
  state.counters["handshake_samples"] =
      static_cast<double>(policy.handshake_samples());
}
BENCHMARK(BM_HandshakeRtt_OnPacket);

void BM_Maglev_WeightedRebuild(benchmark::State& state) {
  auto pool = make_pool(8);
  for (auto& b : pool) b.weight = 1000;
  std::uint32_t flip = 0;
  for (auto _ : state) {
    pool[0].weight = 1000 - 100 * (flip++ % 2);  // alternate 1000/900
    MaglevTable table{65537};
    table.build(pool);
    benchmark::DoNotOptimize(table.raw_table().data());
  }
}
BENCHMARK(BM_Maglev_WeightedRebuild)->Unit(benchmark::kMillisecond);

void BM_InbandPolicy_OnPacket_ClientFloor(benchmark::State& state) {
  InbandPolicyConfig cfg;
  cfg.maglev_table_size = 65537;
  cfg.normalize_client_floor = true;
  InbandLbPolicy policy{make_pool(8), cfg};
  Packet pkt;
  pkt.payload_len = 100;
  SimTime t = 0;
  std::uint32_t i = 0;
  for (auto _ : state) {
    ++i;
    t += us(5);
    pkt.flow = flow_n(i % 4096);
    policy.on_packet(pkt, i % 8, t, false);
  }
}
BENCHMARK(BM_InbandPolicy_OnPacket_ClientFloor);

// --- Event-queue benchmarks: slab pool vs the legacy map-of-std::function
// queue, identical op sequences. ---------------------------------------------

// This payload has the size of a live link delivery: a PacketSink pointer
// plus a pooled PacketRef, as perf_dataplane's eq_steady models it. The
// legacy map-of-std::function queue heap-allocates it (its small buffer
// holds 16 bytes); the slab pool stores it inline.
struct DeliveryPayload {
  unsigned char handle_bytes[24];  // sink* + PacketRef{state*, pkt*}
  std::uint64_t* fired;
  void operator()() const { ++*fired; }
};
static_assert(EventCallback::fits_inline<DeliveryPayload>());

// Fires one event through whichever interface the queue offers: the fused
// in-place fire_next (slab pool) or pop+invoke (legacy).
template <typename Q>
SimTime fire_one(Q& q) {
  if constexpr (requires { q.fire_next([](SimTime) {}); }) {
    return q.fire_next([](SimTime) {});
  } else {
    auto ev = q.pop();
    ev.fn();
    return ev.t;
  }
}

// Steady state: a fixed-size pending set; each iteration pops the earliest
// event and schedules a replacement — Simulator::step's inner cycle.
template <typename Q>
void eq_steady_state(benchmark::State& state) {
  Q q;
  std::uint64_t fired = 0;
  std::uint64_t x = 0x2545F4914F6CDD1DULL;  // xorshift64
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  DeliveryPayload payload{};
  payload.fired = &fired;
  const auto pending = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < pending; ++i) {
    q.push(static_cast<SimTime>(next() % 100000), payload);
  }
  SimTime t = 0;
  AllocMeter meter;
  meter.arm();
  for (auto _ : state) {
    t = fire_one(q);
    q.push(t + 1 + static_cast<SimTime>(next() % 1000), payload);
  }
  meter.report(state);
  state.SetItemsProcessed(state.iterations());
  if (fired == 0) std::abort();  // keep the loop observable
}

void BM_EventQueue_SteadyState(benchmark::State& state) {
  eq_steady_state<EventQueue>(state);
}
BENCHMARK(BM_EventQueue_SteadyState)->Arg(128)->Arg(4096);

void BM_EventQueue_SteadyState_Legacy(benchmark::State& state) {
  eq_steady_state<LegacyEventQueue>(state);
}
BENCHMARK(BM_EventQueue_SteadyState_Legacy)->Arg(128)->Arg(4096);

// Cancel-heavy: per iteration, push 4 timers, cancel 2 (one fresh, one still
// pending from an earlier round), pop 2. What still cancels in the simulator:
// delayed-ACK timers in the §5 ablation, TIME_WAIT entry and teardown, and
// the first retransmit re-arm after a handshake, when rto_ falls from its
// 50 ms initial value below the pending check.
template <typename Q>
void eq_cancel_heavy(benchmark::State& state) {
  Q q;
  std::uint64_t fired = 0;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<EventId> backlog;
  backlog.reserve(1024);
  SimTime floor = 0;
  AllocMeter meter;
  meter.arm();
  for (auto _ : state) {
    EventId fresh = kInvalidEventId;
    for (int k = 0; k < 4; ++k) {
      fresh = q.push(floor + 1 + static_cast<SimTime>(next() % 5000),
                     [&fired] { ++fired; });
      backlog.push_back(fresh);
    }
    q.cancel(fresh);
    backlog.pop_back();
    if (!backlog.empty()) {
      const std::size_t victim = next() % backlog.size();
      q.cancel(backlog[victim]);  // may already have fired: stale-handle path
      backlog[victim] = backlog.back();
      backlog.pop_back();
    }
    for (int k = 0; k < 2 && !q.empty(); ++k) floor = fire_one(q);
    if (backlog.size() > 512) {
      backlog.erase(backlog.begin(), backlog.begin() + 256);
    }
  }
  meter.report(state);
  state.SetItemsProcessed(state.iterations() * 8);  // pushes+cancels+pops
}

void BM_EventQueue_CancelHeavy(benchmark::State& state) {
  eq_cancel_heavy<EventQueue>(state);
}
BENCHMARK(BM_EventQueue_CancelHeavy);

void BM_EventQueue_CancelHeavy_Legacy(benchmark::State& state) {
  eq_cancel_heavy<LegacyEventQueue>(state);
}
BENCHMARK(BM_EventQueue_CancelHeavy_Legacy);

// Eviction churn: a full table where every third insert is a new flow, so
// capacity eviction runs constantly — the legacy O(n) scan's pathology.
template <typename Table>
void flow_table_evict_churn(benchmark::State& state) {
  FlowStateTableConfig cfg;
  cfg.max_entries = static_cast<std::size_t>(state.range(0));
  Table table{cfg};
  const auto n = static_cast<std::uint32_t>(cfg.max_entries);
  for (std::uint32_t i = 0; i < n; ++i) {
    table.get_or_create(flow_n(i), static_cast<SimTime>(i));
  }
  std::uint32_t i = n;
  SimTime t = static_cast<SimTime>(n);
  AllocMeter meter;
  meter.arm();
  for (auto _ : state) {
    ++i;
    ++t;
    // Two refreshes and one brand-new flow per round.
    table.get_or_create(flow_n(i % n), t);
    table.get_or_create(flow_n((i * 7 + 1) % n), t);
    table.get_or_create(flow_n(i), t);  // new flow: forces an eviction
  }
  meter.report(state);
  state.SetItemsProcessed(state.iterations() * 3);
  state.counters["evictions"] = static_cast<double>(table.evictions());
}

void BM_FlowTable_EvictChurn(benchmark::State& state) {
  flow_table_evict_churn<FlowStateTable>(state);
}
BENCHMARK(BM_FlowTable_EvictChurn)->Arg(1024)->Arg(16384);

void BM_FlowTable_EvictChurn_Legacy(benchmark::State& state) {
  flow_table_evict_churn<LegacyFlowStateTable>(state);
}
BENCHMARK(BM_FlowTable_EvictChurn_Legacy)->Arg(1024);
// The legacy table's allocations per round depend on how many rounds run,
// so a round count picked from the host's speed moved allocs_per_iter across
// perfcmp's gate. A fixed count makes it deterministic.
BENCHMARK(BM_FlowTable_EvictChurn_Legacy)->Arg(16384)->Iterations(2000);

void BM_HashFlow(benchmark::State& state) {
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash_flow(flow_n(i++)));
  }
}
BENCHMARK(BM_HashFlow);

}  // namespace
}  // namespace inband

BENCHMARK_MAIN();
