// PERF — the dataplane hot-path harness behind BENCH_dataplane.json.
//
// Three reproducible measurements:
//  1. event-queue steady state: a pop→invoke→reschedule loop at a fixed
//     pending-set size, the simulator's innermost cycle (events/sec,
//     ns/event);
//  2. event-queue cancel-heavy: pushes, mid-heap cancels, and pops
//     interleaved — the pattern of delayed-ACK timers and TIME_WAIT/teardown
//     cancels, and the workload that grows tombstones;
//  3. a scaled Fig. 3 cluster rig: wall-clock packets/sec + events/sec and
//     heap allocations per packet (global operator new counting via
//     src/util/alloc_counter, linked into this binary only), plus a same-seed
//     double run whose state digests must match;
//  4. the sharded parallel rig (scenario/sharded_rig.h) at 1 and 4 workers,
//     run as 5 interleaved pairs: each side's median packets/sec, the
//     median of the pairs' 4-worker speedups, and — the gate — whether the
//     combined digest is identical across every run.
//     rig_parallel_hw_threads records the runner's core budget, because a
//     1-core container legitimately measures a ~1x "speedup"
//     (bench/parallel_rig sweeps {1,2,4,8} in more detail).
//
// Output: the common bench JSON envelope with metrics {before?, after,
// improvement?}. --before <path> splices a previous report in as "before"
// and computes the improvement ratios — that is how the repo-root
// BENCH_dataplane.json records the pre/post numbers of a hot-path change.
// The harness exits non-zero on digest mismatch or if its own output fails
// schema validation, and on nothing else (no wall-clock gating), so CI can
// run it as a smoke test without flakiness.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "scenario/cluster_rig.h"
#include "scenario/sharded_rig.h"
#include "sim/event_queue.h"
#include "util/alloc_counter.h"
#include "util/bench_cli.h"
#include "util/json.h"

using namespace inband;

namespace {

// detlint:allow(wall-clock): this harness *measures* wall time; nothing simulated depends on it
using Clock = std::chrono::steady_clock;

double wall_seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// xorshift64: cheap deterministic times for the microbenches.
struct MiniRng {
  std::uint64_t x;
  std::uint64_t next() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
};

struct EqResult {
  double events_per_sec = 0;
  double ns_per_event = 0;
};

// Best-of-N wrapper: wall-clock microbenches on a shared box are noisy in
// one direction only (preemption, frequency dips), so the fastest of a few
// repetitions is the closest estimate of the true cost.
template <typename BenchFn>
EqResult best_of(int reps, BenchFn&& bench) {
  EqResult best;
  for (int i = 0; i < reps; ++i) {
    const EqResult r = bench();
    if (r.events_per_sec > best.events_per_sec) best = r;
  }
  return best;
}

// Runs one event the way Simulator::step does for the queue at hand: the
// fused in-place fire when the queue provides it, pop+invoke otherwise
// (the pre-arena queue's only interface). Returns the event time.
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

// The simulator's dominant event is a link delivery. Since the PacketBatch
// redesign its callback carries a PacketSink pointer plus a pooled
// PacketRef — three words, not the ~140-byte by-value Packet it used to.
// The steady-state bench models the new capture size so the measured event
// cost matches what the rig actually schedules.
struct FakeDelivery {
  unsigned char handle_bytes[24];  // sink* + PacketRef{state*, pkt*}
  std::uint64_t* fired;
  void operator()() const { ++*fired; }
};

// Steady state: keep `pending` events in flight; each iteration pops the
// earliest and schedules a replacement — exactly what Simulator::step does
// all day. The callback bumps a counter so the invoke path is measured too.
EqResult eq_steady(std::uint64_t iterations, std::size_t pending) {
  EventQueue q;
  MiniRng rng{0x2545F4914F6CDD1DULL};
  std::uint64_t fired = 0;
  SimTime t = 0;
  FakeDelivery ev_payload{};
  ev_payload.fired = &fired;
  for (std::size_t i = 0; i < pending; ++i) {
    ev_payload.handle_bytes[0] = static_cast<unsigned char>(i);
    q.push(static_cast<SimTime>(rng.next() % 100000), ev_payload);
  }
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < iterations; ++i) {
    t = fire_one(q);
    ev_payload.handle_bytes[0] = static_cast<unsigned char>(i);
    q.push(t + 1 + static_cast<SimTime>(rng.next() % 1000), ev_payload);
  }
  const double secs = wall_seconds(start, Clock::now());
  if (fired == 0) std::abort();  // keep the loop observable
  EqResult r;
  r.events_per_sec = static_cast<double>(iterations) / secs;
  r.ns_per_event = secs * 1e9 / static_cast<double>(iterations);
  return r;
}

// Cancel-heavy: per round, push 4 timers, cancel 2 of them (one fresh, one
// from an earlier round — a mid-heap tombstone), pop 2. Ops = pushes +
// cancels + pops.
EqResult eq_cancel_heavy(std::uint64_t rounds) {
  EventQueue q;
  MiniRng rng{0x9E3779B97F4A7C15ULL};
  std::vector<EventId> backlog;
  backlog.reserve(1024);
  std::uint64_t fired = 0;
  SimTime floor = 0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < rounds; ++i) {
    EventId fresh = kInvalidEventId;
    for (int k = 0; k < 4; ++k) {
      fresh = q.push(floor + 1 + static_cast<SimTime>(rng.next() % 5000),
                     [&fired] { ++fired; });
      backlog.push_back(fresh);
    }
    q.cancel(fresh);
    backlog.pop_back();
    if (!backlog.empty()) {
      const std::size_t victim = rng.next() % backlog.size();
      q.cancel(backlog[victim]);  // may already have fired: stale-handle path
      backlog[victim] = backlog.back();
      backlog.pop_back();
    }
    for (int k = 0; k < 2 && !q.empty(); ++k) {
      floor = fire_one(q);
    }
    if (backlog.size() > 512) backlog.erase(backlog.begin(),
                                            backlog.begin() + 256);
  }
  const double secs = wall_seconds(start, Clock::now());
  const double ops = static_cast<double>(rounds) * 8.0;
  EqResult r;
  r.events_per_sec = ops / secs;
  r.ns_per_event = secs * 1e9 / ops;
  return r;
}

struct RigResult {
  std::uint64_t packets = 0;
  std::uint64_t events = 0;
  double wall_ms = 0;
  double packets_per_sec = 0;
  double events_per_sec = 0;
  std::uint64_t heap_allocs = 0;
  double heap_allocs_per_packet = 0;
  double heap_bytes_per_packet = 0;
  std::uint64_t batches = 0;
  double packets_per_batch = 0;
  std::uint64_t max_batch = 0;
  std::uint64_t pool_slots = 0;
  std::uint64_t pool_high_water = 0;
  std::uint64_t digest = 0;
  bool digest_match = false;
  bool alloc_counting = false;
};

ClusterRigConfig rig_config(std::int64_t seed, SimTime duration,
                            int servers, int clients) {
  ClusterRigConfig cfg;
  cfg.mode = LbMode::kInband;
  cfg.num_servers = servers;
  cfg.num_client_hosts = clients;
  cfg.duration = duration;
  cfg.inject_time = duration / 2;
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.client.connections = 4;
  cfg.client.pipeline = 4;
  cfg.server.workers = 8;
  cfg.share_sample_interval = ms(10);
  cfg.audit_interval = 0;  // measure the dataplane, not the auditor
  return cfg;
}

RigResult run_rig(const ClusterRigConfig& cfg) {
  RigResult r;
  r.alloc_counting = allocs::counting_enabled();
  ClusterRig rig{cfg};
  const auto ev0 = rig.sim().executed_events();
  const auto before = allocs::snapshot();
  const auto start = Clock::now();
  rig.run();
  const double secs = wall_seconds(start, Clock::now());
  const auto mem = allocs::delta(before, allocs::snapshot());
  const NetStats net = rig.net().stats();
  r.packets = net.packets_sent;
  r.batches = net.batches;
  if (net.batches > 0) {
    r.packets_per_batch = static_cast<double>(net.batch_packets) /
                          static_cast<double>(net.batches);
  }
  r.max_batch = net.max_batch;
  r.pool_slots = net.pool.slots;
  r.pool_high_water = net.pool.high_water;
  r.events = rig.sim().executed_events() - ev0;
  r.wall_ms = secs * 1e3;
  r.packets_per_sec = static_cast<double>(r.packets) / secs;
  r.events_per_sec = static_cast<double>(r.events) / secs;
  r.heap_allocs = mem.count;
  if (r.packets > 0) {
    r.heap_allocs_per_packet =
        static_cast<double>(mem.count) / static_cast<double>(r.packets);
    r.heap_bytes_per_packet =
        static_cast<double>(mem.bytes) / static_cast<double>(r.packets);
  }
  r.digest = rig.state_digest();
  return r;
}

struct ParallelResult {
  std::int64_t shards = 0;
  std::uint64_t packets = 0;
  std::uint64_t cross_packets = 0;
  double w1_packets_per_sec = 0;
  double w4_packets_per_sec = 0;
  double speedup_4w = 0;
  std::uint64_t digest = 0;
  bool digest_match = false;
};

// Interleaved (1-worker, 4-worker) run pairs behind the speedup estimate.
// One pair's ratio of two ~0.2 s quick runs swings by tens of percent on a
// shared machine; the median over pairs run back to back does not.
constexpr int kParallelPairs = 5;

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

ParallelResult run_parallel(std::int64_t seed, int shards, SimTime duration) {
  ShardedRigConfig cfg;
  cfg.num_shards = shards;
  cfg.shard = rig_config(seed, duration, /*servers=*/2, /*clients=*/2);
  cfg.remote_clients_per_shard = 1;
  cfg.remote_client.connections = 2;
  cfg.remote_client.pipeline = 2;
  cfg.remote_client.requests_per_conn = 50;

  ParallelResult r;
  r.shards = shards;
  r.digest_match = true;
  std::vector<double> walls[2];
  std::vector<double> ratios;
  const int workers[2] = {1, 4};
  for (int pair = 0; pair < kParallelPairs; ++pair) {
    double wall[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
      cfg.workers = workers[i];
      ShardedRig rig{cfg};
      const auto start = Clock::now();
      rig.run();
      wall[i] = wall_seconds(start, Clock::now());
      walls[i].push_back(wall[i]);
      const std::uint64_t digest = rig.combined_digest();
      if (pair == 0 && i == 0) {
        r.digest = digest;
        r.packets = rig.total_packets_sent();
        r.cross_packets = rig.cross_packets();
      }
      r.digest_match = r.digest_match && digest == r.digest;
    }
    if (wall[1] > 0) ratios.push_back(wall[0] / wall[1]);
  }
  const auto rate = [&r](double wall) {
    return wall > 0 ? static_cast<double>(r.packets) / wall : 0.0;
  };
  r.w1_packets_per_sec = rate(median_of(walls[0]));
  r.w4_packets_per_sec = rate(median_of(walls[1]));
  r.speedup_4w = ratios.empty() ? 0.0 : median_of(ratios);
  return r;
}

void write_metrics(JsonWriter& w, const EqResult& steady,
                   const EqResult& cancel, const RigResult& rig,
                   const ParallelResult& par) {
  w.kv("eq_steady_events_per_sec", steady.events_per_sec);
  w.kv("eq_steady_ns_per_event", steady.ns_per_event);
  w.kv("eq_cancel_heavy_events_per_sec", cancel.events_per_sec);
  w.kv("eq_cancel_heavy_ns_per_event", cancel.ns_per_event);
  w.kv("rig_packets", rig.packets);
  w.kv("rig_events", rig.events);
  w.kv("rig_wall_ms", rig.wall_ms);
  w.kv("rig_packets_per_sec", rig.packets_per_sec);
  w.kv("rig_events_per_sec", rig.events_per_sec);
  w.kv("rig_alloc_counting", rig.alloc_counting);
  w.kv("rig_heap_allocs", rig.heap_allocs);
  w.kv("rig_heap_allocs_per_packet", rig.heap_allocs_per_packet);
  w.kv("rig_heap_bytes_per_packet", rig.heap_bytes_per_packet);
  w.kv("rig_batches", rig.batches);
  w.kv("rig_packets_per_batch", rig.packets_per_batch);
  w.kv("rig_max_batch", rig.max_batch);
  w.kv("rig_pool_slots", rig.pool_slots);
  w.kv("rig_pool_high_water", rig.pool_high_water);
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(rig.digest));
  w.kv("rig_digest", hex);
  w.kv("rig_digest_match", rig.digest_match);
  w.kv("rig_parallel_shards", par.shards);
  w.kv("rig_parallel_hw_threads",
       static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  w.kv("rig_parallel_packets", par.packets);
  w.kv("rig_parallel_cross_packets", par.cross_packets);
  w.kv("rig_parallel_w1_packets_per_sec", par.w1_packets_per_sec);
  w.kv("rig_parallel_w4_packets_per_sec", par.w4_packets_per_sec);
  w.kv("rig_parallel_speedup_4w", par.speedup_4w);
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(par.digest));
  w.kv("rig_parallel_digest", hex);
  w.kv("rig_parallel_digest_match", par.digest_match);
}

// The keys every metrics object must carry; the smoke test and --before
// splicing both rely on them.
const char* const kRequiredMetricKeys[] = {
    "eq_steady_events_per_sec",   "eq_steady_ns_per_event",
    "eq_cancel_heavy_events_per_sec", "eq_cancel_heavy_ns_per_event",
    "rig_packets",                "rig_events",
    "rig_packets_per_sec",        "rig_events_per_sec",
    "rig_heap_allocs_per_packet", "rig_heap_bytes_per_packet",
    "rig_digest",                 "rig_digest_match",
};

// Batch-shape keys: mandatory in "after", optional in a spliced "before" —
// reports written before the PacketBatch boundary predate these metrics.
const char* const kBatchMetricKeys[] = {
    "rig_batches", "rig_packets_per_batch",
    "rig_pool_slots", "rig_pool_high_water",
};

// Parallel-rig keys: mandatory in "after", optional in a spliced "before" —
// reports written before the sharded rig existed predate these metrics.
const char* const kParallelMetricKeys[] = {
    "rig_parallel_shards",             "rig_parallel_hw_threads",
    "rig_parallel_w1_packets_per_sec", "rig_parallel_w4_packets_per_sec",
    "rig_parallel_speedup_4w",         "rig_parallel_cross_packets",
    "rig_parallel_digest",             "rig_parallel_digest_match",
};

bool validate_metrics_object(const JsonValue& metrics, bool require_batch,
                             std::string* error) {
  for (const char* key : kRequiredMetricKeys) {
    const JsonValue* v = metrics.find(key);
    if (v == nullptr) {
      *error = std::string{"missing metrics key: "} + key;
      return false;
    }
  }
  if (require_batch) {
    for (const char* key : kBatchMetricKeys) {
      if (metrics.find(key) == nullptr) {
        *error = std::string{"missing metrics key: "} + key;
        return false;
      }
    }
    for (const char* key : kParallelMetricKeys) {
      if (metrics.find(key) == nullptr) {
        *error = std::string{"missing metrics key: "} + key;
        return false;
      }
    }
    const JsonValue* pmatch = metrics.find("rig_parallel_digest_match");
    if (!pmatch->is_bool()) {
      *error = "rig_parallel_digest_match is not a bool";
      return false;
    }
  }
  const JsonValue* match = metrics.find("rig_digest_match");
  if (!match->is_bool()) {
    *error = "rig_digest_match is not a bool";
    return false;
  }
  return true;
}

// Validates the file this harness just wrote: envelope + the "after"
// metrics object (and "before", when present).
bool validate_report(const std::string& path, std::string* error) {
  auto root = json_parse_file(path, error);
  if (root == nullptr) return false;
  const JsonValue* schema = root->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->str_v != BenchCli::kSchema) {
    *error = "bad or missing schema tag";
    return false;
  }
  const JsonValue* metrics = root->find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    *error = "missing metrics object";
    return false;
  }
  const JsonValue* after = metrics->find("after");
  if (after == nullptr || !after->is_object()) {
    *error = "missing metrics.after object";
    return false;
  }
  if (!validate_metrics_object(*after, /*require_batch=*/true, error)) {
    return false;
  }
  const JsonValue* before = metrics->find("before");
  if (before != nullptr && before->is_object() &&
      !validate_metrics_object(*before, /*require_batch=*/false, error)) {
    return false;
  }
  return true;
}

// Extracts the metrics object from a previous report: accepts either a
// combined file (metrics.after) or any object carrying the metric keys.
const JsonValue* baseline_metrics(const JsonValue& root) {
  if (const JsonValue* metrics = root.find("metrics")) {
    if (const JsonValue* after = metrics->find("after")) return after;
    if (metrics->find("eq_steady_events_per_sec") != nullptr) return metrics;
  }
  if (root.find("eq_steady_events_per_sec") != nullptr) return &root;
  return nullptr;
}

double num_or(const JsonValue& obj, const char* key, double fallback) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->num_v : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  BenchCli cli{"perf_dataplane",
               "dataplane hot-path perf harness (BENCH_dataplane.json)"};
  cli.set_json_default("BENCH_dataplane.json");
  std::int64_t eq_iterations = 4'000'000;
  // Sized to the Fig. 3 rig's measured in-flight event set (mean ~70, peak
  // ~130 with 4 servers / 4 client hosts) — the steady-state bench should
  // exercise the simulator's real operating point, not an artificially deep
  // heap.
  std::int64_t eq_pending = 128;
  std::int64_t cancel_rounds = 1'000'000;
  std::int64_t rig_ms = 3000;
  std::int64_t rig_servers = 4;
  std::int64_t rig_clients = 4;
  std::string before_path;
  cli.flags().add("eq_iterations", &eq_iterations,
                  "steady-state pop/push iterations");
  cli.flags().add("eq_pending", &eq_pending,
                  "pending-event set size for the steady-state bench");
  cli.flags().add("cancel_rounds", &cancel_rounds,
                  "rounds of the cancel-heavy bench");
  cli.flags().add("rig_ms", &rig_ms, "simulated ms of the Fig. 3 rig");
  cli.flags().add("rig_servers", &rig_servers, "rig server count");
  cli.flags().add("rig_clients", &rig_clients, "rig client-host count");
  cli.flags().add("before", &before_path,
                  "previous report whose metrics become the 'before' column");
  if (!cli.parse(argc, argv)) return 1;

  if (cli.quick()) {
    eq_iterations = 400'000;
    cancel_rounds = 100'000;
    rig_ms = 400;
    rig_servers = 2;
    rig_clients = 2;
  }

  std::fprintf(stderr, "eq steady: %lld iterations, %lld pending...\n",
               static_cast<long long>(eq_iterations),
               static_cast<long long>(eq_pending));
  const int reps = cli.quick() ? 2 : 5;
  const EqResult steady = best_of(reps, [&] {
    return eq_steady(static_cast<std::uint64_t>(eq_iterations),
                     static_cast<std::size_t>(eq_pending));
  });
  std::fprintf(stderr, "  %.2fM events/s (%.1f ns/event)\n",
               steady.events_per_sec / 1e6, steady.ns_per_event);

  std::fprintf(stderr, "eq cancel-heavy: %lld rounds...\n",
               static_cast<long long>(cancel_rounds));
  const EqResult cancel = best_of(reps, [&] {
    return eq_cancel_heavy(static_cast<std::uint64_t>(cancel_rounds));
  });
  std::fprintf(stderr, "  %.2fM ops/s (%.1f ns/op)\n",
               cancel.events_per_sec / 1e6, cancel.ns_per_event);

  std::fprintf(stderr,
               "fig3 rig: %lldms sim, %lld servers, %lld clients...\n",
               static_cast<long long>(rig_ms),
               static_cast<long long>(rig_servers),
               static_cast<long long>(rig_clients));
  const ClusterRigConfig cfg =
      rig_config(cli.seed(), ms(rig_ms), static_cast<int>(rig_servers),
                 static_cast<int>(rig_clients));
  RigResult rig = run_rig(cfg);
  const RigResult rig2 = run_rig(cfg);  // same seed: digest must reproduce
  rig.digest_match = rig.digest == rig2.digest;
  std::fprintf(stderr,
               "  %.0fk pkts/s wall, %.0fk events/s wall, "
               "%.2f heap allocs/pkt (%s), digest %016llx %s\n",
               rig.packets_per_sec / 1e3, rig.events_per_sec / 1e3,
               rig.heap_allocs_per_packet,
               rig.alloc_counting ? "counted" : "NOT COUNTED",
               static_cast<unsigned long long>(rig.digest),
               rig.digest_match ? "reproduced" : "MISMATCH");

  const int par_shards = cli.quick() ? 4 : 8;
  const SimTime par_ms = cli.quick() ? ms(300) : ms(1000);
  std::fprintf(stderr,
               "parallel rig: %d shards x %lldms sim, %d (1, 4)-worker pairs, "
               "%u hardware thread(s)...\n",
               par_shards, static_cast<long long>(par_ms / ms(1)),
               kParallelPairs, std::thread::hardware_concurrency());
  const ParallelResult par = run_parallel(cli.seed(), par_shards, par_ms);
  std::fprintf(stderr,
               "  median w1 %.0fk pkts/s, w4 %.0fk pkts/s, speedup %.2fx, "
               "%llu cross, digest %016llx %s\n",
               par.w1_packets_per_sec / 1e3, par.w4_packets_per_sec / 1e3,
               par.speedup_4w,
               static_cast<unsigned long long>(par.cross_packets),
               static_cast<unsigned long long>(par.digest),
               par.digest_match ? "reproduced" : "MISMATCH");

  // Optional baseline to splice in as "before".
  std::unique_ptr<JsonValue> before_root;
  const JsonValue* before = nullptr;
  if (!before_path.empty()) {
    std::string error;
    before_root = json_parse_file(before_path, &error);
    if (before_root == nullptr) {
      std::fprintf(stderr, "cannot parse --before %s: %s\n",
                   before_path.c_str(), error.c_str());
      return 1;
    }
    before = baseline_metrics(*before_root);
    if (before == nullptr) {
      std::fprintf(stderr, "--before %s carries no metrics\n",
                   before_path.c_str());
      return 1;
    }
  }

  const bool wrote = cli.write_json([&](JsonWriter& w) {
    w.key("before");
    if (before != nullptr) {
      json_write_value(w, *before);
    } else {
      w.value_null();
    }
    w.key("after").begin_object();
    write_metrics(w, steady, cancel, rig, par);
    w.end_object();
    w.key("improvement");
    if (before != nullptr) {
      const double b_steady =
          num_or(*before, "eq_steady_events_per_sec", 0);
      const double b_cancel =
          num_or(*before, "eq_cancel_heavy_events_per_sec", 0);
      const double b_allocs =
          num_or(*before, "rig_heap_allocs_per_packet", 0);
      w.begin_object();
      w.kv("eq_steady_speedup",
           b_steady > 0 ? steady.events_per_sec / b_steady : 0.0);
      w.kv("eq_cancel_heavy_speedup",
           b_cancel > 0 ? cancel.events_per_sec / b_cancel : 0.0);
      w.kv("allocs_per_packet_ratio",
           rig.heap_allocs_per_packet > 0
               ? b_allocs / rig.heap_allocs_per_packet
               : 0.0);
      w.end_object();
    } else {
      w.value_null();
    }
  });
  if (!wrote) return 1;

  // Hard failures: non-reproducible rig, or a report that fails its own
  // schema. Perf numbers themselves never gate — machines differ.
  int rc = 0;
  if (!rig.digest_match) {
    std::fprintf(stderr, "FAIL: same-seed rig digests diverged\n");
    rc = 1;
  }
  if (!par.digest_match) {
    std::fprintf(stderr,
                 "FAIL: sharded rig digests diverged across worker counts\n");
    rc = 1;
  }
  if (!cli.json_path().empty()) {
    std::string error;
    if (!validate_report(cli.json_path(), &error)) {
      std::fprintf(stderr, "FAIL: %s schema: %s\n", cli.json_path().c_str(),
                   error.c_str());
      rc = 1;
    } else {
      std::fprintf(stderr, "report ok: %s\n", cli.json_path().c_str());
    }
  }
  return rc;
}
