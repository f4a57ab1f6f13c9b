// Benchmark driver: runs one workload for about --seconds of host time and
// prints one JSON result line on stdout (a readable report goes to stderr).
//
//   perfbench_driver --workload fig3|churn_noise|sharded --seed N
//                    --seconds S --mode untraced|traced
//
// untraced: the end-to-end metrics, from the library's own ClusterRig or
//   ShardedRig (on 1 worker thread). One discarded warm-up run, then timed
//   runs until S seconds have passed; host-time metrics are medians over the
//   timed runs.
// traced:   the per-layer metrics. ClusterRig workloads alternate untraced
//   runs with runs of the traced replica (traced_rig.h); the sharded
//   workload alternates 1-worker and 4-worker runs.
//
// Every run of one seed must reproduce the warm-up run's state digest, and a
// traced run must reproduce the untraced digest; the paper's claim (a table
// update within 50 ms of the injected delay) is checked on fig3. A failed
// check sets "correct": false and counts every request as failed.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "scenario/cluster_rig.h"
#include "scenario/sharded_rig.h"
#include "stats.h"
#include "traced_rig.h"
#include "util/alloc_counter.h"
#include "util/flags.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace inband;

constexpr SimTime kReactionLimit = ms(50);  // bench/fig3's claim threshold
// The reported tail percentile, and the samples it must leave beyond it.
// p99, not p99.9: on churn_noise the requests that needed two
// retransmissions (about 0.1% of them, 38 to 64 in the second half across
// seeds 21-30) sit right at the p99.9 rank, so p99.9 jumped between 5.5 and
// 10.1 ms from seed to seed. p99 leaves over 500 samples beyond it.
constexpr double kTailQuantile = 0.99;
constexpr std::size_t kTailSamples = 50;
constexpr int kMinTimedRuns = 3;
constexpr std::size_t kMinSetupSamples = 101;
// The sharded workload's end-to-end runs use one worker thread: on a shared
// 4-core machine 4-worker throughput drifted by 20% across consecutive runs,
// too much for any bound. The 4-worker figures are per-layer (sync.*).
constexpr int kEndToEndWorkers = 1;
constexpr int kParallelWorkers = 4;

double seconds_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) / 1e9;
}

// ---------------------------------------------------------------------------
// Simulated outcome of one run: identical for every run of one seed.

struct Outcome {
  std::uint64_t digest = 0;
  std::uint64_t packets = 0;
  std::uint64_t completed = 0;  // request records
  std::uint64_t attempted = 0;  // requests sent
  std::uint64_t failed = 0;     // lost to reset connections (upper bound)
  std::vector<double> get_us;   // GET latencies sent in the second half
  // Per LB tier that made a table update after the injected delay.
  std::vector<double> reaction_ms;
};

void add_records(const std::vector<RequestRecord>& recs, SimTime from,
                 Outcome& o) {
  o.completed += recs.size();
  for (const RequestRecord& r : recs) {
    if (r.op == KvOp::kGet && r.sent_at >= from) {
      o.get_us.push_back(static_cast<double>(r.latency) / 1e3);
    }
  }
}

void add_client(const KvClient& c, Outcome& o) {
  o.attempted += c.requests_sent();
  // A request is lost only with its connection: at most `pipeline` per
  // reset, and never more than went unanswered.
  const std::uint64_t unanswered = c.requests_sent() - c.responses_received();
  o.failed += std::min(unanswered,
                       c.connection_failures() *
                           static_cast<std::uint64_t>(c.config().pipeline));
}

void add_tier(ClusterRig& rig, Outcome& o) {
  const ClusterRigConfig& cfg = rig.config();
  add_records(rig.records(), cfg.duration / 2, o);
  for (int i = 0; i < rig.num_clients(); ++i) add_client(rig.client(i), o);
  o.packets += rig.net().stats().packets_sent;
  for (const ShiftEvent& ev : rig.inband_policy()->shift_history()) {
    if (ev.t >= cfg.inject_time) {
      o.reaction_ms.push_back(to_ms(ev.t - cfg.inject_time));
      break;
    }
  }
}

Outcome cluster_outcome(ClusterRig& rig) {
  Outcome o;
  add_tier(rig, o);
  o.digest = rig.state_digest();
  return o;
}

Outcome sharded_outcome(ShardedRig& rig) {
  Outcome o;
  for (int s = 0; s < rig.num_shards(); ++s) {
    add_tier(rig.shard(s), o);
    add_records(rig.remote_records(s), rig.config().shard.duration / 2, o);
    for (int i = 0; i < rig.num_remote_clients(s); ++i) {
      add_client(rig.remote_client(s, i), o);
    }
  }
  o.digest = rig.combined_digest();
  return o;
}

// ---------------------------------------------------------------------------
// Per-layer counters read from public accessors after an untraced run.

struct Counters {
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t batches = 0;
  std::uint64_t batch_packets = 0;
  std::uint64_t pool_high_water = 0;
  std::uint64_t net_drops = 0;
  std::uint64_t lb_packets = 0;
  std::uint64_t lb_new_flows = 0;
  std::uint64_t lb_forwarded = 0;
  std::uint64_t samples = 0;
  std::uint64_t shifts = 0;
  std::uint64_t slots_disturbed = 0;
  std::uint64_t conns_opened = 0;
  std::uint64_t resets = 0;
  double busy_worker_s = 0;
  double worker_s = 0;
  std::uint64_t queue_max = 0;
  std::uint64_t fault_loss = 0;
  std::uint64_t fault_decisions = 0;
};

void add_stack(Network& net, Ipv4 addr, Counters& c) {
  if (auto* host = dynamic_cast<TcpHost*>(net.host_at(addr))) {
    c.resets += host->stack().resets_sent();
  }
}

void add_counters(ClusterRig& rig, Counters& c) {
  const ClusterRigConfig& cfg = rig.config();
  const NetStats net = rig.net().stats();
  c.events += rig.sim().executed_events();
  c.packets += net.packets_sent;
  c.batches += net.batches;
  c.batch_packets += net.batch_packets;
  c.pool_high_water = std::max<std::uint64_t>(c.pool_high_water,
                                              net.pool.high_water);
  c.net_drops += net.packets_dropped;
  LoadBalancer& lb = rig.lb();
  c.lb_packets += lb.counters().value("lb.packets_in");
  c.lb_new_flows += lb.counters().value("lb.new_flows");
  c.lb_forwarded += lb.counters().value("lb.packets_forwarded");
  const InbandLbPolicy& policy = *rig.inband_policy();
  c.samples += policy.samples_total();
  c.shifts += policy.controller().shifts();
  c.slots_disturbed += policy.slots_disturbed();
  for (int i = 0; i < rig.num_clients(); ++i) {
    c.conns_opened += rig.client(i).connections_opened();
    add_stack(rig.net(), rig_client_addr(cfg.addr_base, i), c);
  }
  for (int s = 0; s < cfg.num_servers; ++s) {
    KvServer& server = rig.server(s);
    c.busy_worker_s += server.busy_worker_seconds(rig.sim().now());
    c.worker_s += server.config().workers * to_sec(rig.sim().now());
    c.queue_max = std::max<std::uint64_t>(c.queue_max,
                                          server.max_queue_depth());
    add_stack(rig.net(), rig_server_addr(cfg.addr_base, s), c);
  }
  if (FaultLayer* fault = rig.fault()) {
    c.fault_loss += fault->counters().value("fault.loss") +
                    fault->counters().value("fault.flap_drops");
    c.fault_decisions += fault->counters().value("fault.decisions");
  }
}

void add_counters(ShardedRig& rig, Counters& c) {
  for (int s = 0; s < rig.num_shards(); ++s) {
    add_counters(rig.shard(s), c);
    for (int i = 0; i < rig.num_remote_clients(s); ++i) {
      c.conns_opened += rig.remote_client(s, i).connections_opened();
      add_stack(rig.shard(s).net(), rig_remote_client_addr(s, i), c);
    }
  }
}

// ---------------------------------------------------------------------------
// Result assembly.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string base;  // what the value was computed from, for the report
};

struct Result {
  bool correct = true;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failures.push_back(what);
    }
  }
  void add(std::string name, double value, std::string unit,
           std::string base = {}) {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(base)});
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string count_base(double n, const char* what) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "over %.6g %s", n, what);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// The checks every mode makes on the reference run's outcome.
void check_outcome(const Outcome& o, Workload w, Result& r) {
  const std::size_t n = o.get_us.size();
  r.check(highest_supported_quantile(n, kTailSamples) >= kTailQuantile,
          "fewer than 50 GET samples beyond p99");
  if (w == Workload::kFig3) {
    r.check(!o.reaction_ms.empty() && o.reaction_ms[0] < to_ms(kReactionLimit),
            "fig3: first table update not within 50 ms of the injection");
  }
  std::vector<double> get_us = o.get_us;
  std::fprintf(stderr,
               "simulated: %llu packets, %llu of %llu requests completed, %zu "
               "GET samples in the second half (%zu beyond p99; p99.9 %.1f us "
               "with %zu beyond), state digest %s\n",
               static_cast<unsigned long long>(o.packets),
               static_cast<unsigned long long>(o.completed),
               static_cast<unsigned long long>(o.attempted), n,
               samples_beyond(n, kTailQuantile), quantile(get_us, 0.999),
               samples_beyond(n, 0.999), hex(o.digest).c_str());
}

// Prints the report to stderr and the result line to stdout. A run that
// failed a check counts every attempted request as failed; otherwise none
// is (simulated losses are reported by success_ratio instead).
void print_result(const Result& r, std::uint64_t attempted) {
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  for (const Metric& m : r.metrics) {
    std::fprintf(stderr, "  %-24s %14.6g %-8s %s\n", m.name.c_str(), m.value,
                 m.unit.c_str(), m.base.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(r.correct ? 0 : attempted));
  bool first = true;
  for (const Metric& m : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------------
// Timed runs.

struct RunTiming {
  double setup_s = 0;
  double run_s = 0;
  Outcome outcome;
  allocs::Snapshot allocs;
};

// Builds, starts, runs and finishes a ClusterRig; `inspect` sees it before
// it is destroyed.
RunTiming cluster_run(const ClusterRigConfig& cfg,
                      const std::function<void(ClusterRig&)>& inspect = {}) {
  RunTiming t;
  const std::int64_t t0 = host_now_ns();
  ClusterRig rig{cfg};
  rig.start();
  const std::int64_t t1 = host_now_ns();
  const allocs::Snapshot a0 = allocs::snapshot();
  rig.run_until(cfg.duration);
  const allocs::Snapshot a1 = allocs::snapshot();
  const std::int64_t t2 = host_now_ns();
  rig.finish();
  t.setup_s = seconds_between(t0, t1);
  t.run_s = seconds_between(t1, t2);
  t.allocs = allocs::delta(a0, a1);
  t.outcome = cluster_outcome(rig);
  if (inspect) inspect(rig);
  return t;
}

RunTiming sharded_run(const ShardedRigConfig& cfg,
                      const std::function<void(ShardedRig&)>& inspect = {}) {
  RunTiming t;
  const std::int64_t t0 = host_now_ns();
  ShardedRig rig{cfg};
  const std::int64_t t1 = host_now_ns();
  const allocs::Snapshot a0 = allocs::snapshot();
  rig.run();
  const allocs::Snapshot a1 = allocs::snapshot();
  const std::int64_t t2 = host_now_ns();
  t.setup_s = seconds_between(t0, t1);
  t.run_s = seconds_between(t1, t2);
  t.allocs = allocs::delta(a0, a1);
  t.outcome = sharded_outcome(rig);
  if (inspect) inspect(rig);
  return t;
}

// Set-up only: build and start, then tear down without running.
double setup_only(Workload w, std::uint64_t seed) {
  const std::int64_t t0 = host_now_ns();
  std::int64_t t1 = 0;
  if (w == Workload::kSharded) {
    ShardedRig rig{sharded_config(seed, kEndToEndWorkers)};
    t1 = host_now_ns();
  } else {
    ClusterRig rig{w == Workload::kFig3 ? fig3_config(seed)
                                        : churn_noise_config(seed)};
    rig.start();
    t1 = host_now_ns();
  }
  return seconds_between(t0, t1);
}

RunTiming run_once(Workload w, std::uint64_t seed,
                   int workers = kEndToEndWorkers) {
  RunTiming t = w == Workload::kSharded
                    ? sharded_run(sharded_config(seed, workers))
                    : cluster_run(w == Workload::kFig3
                                      ? fig3_config(seed)
                                      : churn_noise_config(seed));
  // Hand the freed heap back, so peak RSS is one run's peak rather than
  // depending on fragmentation left by earlier runs.
  malloc_trim(0);
  return t;
}

int run_untraced(Workload w, std::uint64_t seed, double seconds) {
  Result r;
  // Warm-up: page-faults the pools in, lets the CPU clock settle, and fixes
  // the reference digest. Its host time is discarded.
  const RunTiming warm = run_once(w, seed);
  const Outcome& o = warm.outcome;
  std::vector<double> setup_s;
  std::vector<double> pkts_per_s;
  std::vector<double> reqs_per_s;
  const std::int64_t start = host_now_ns();
  int runs = 0;
  while (runs < kMinTimedRuns ||
         seconds_between(start, host_now_ns()) < seconds) {
    const RunTiming t = run_once(w, seed);
    ++runs;
    r.check(t.outcome.digest == o.digest,
            "run " + std::to_string(runs) + " digest " +
                hex(t.outcome.digest) + " differs from the warm-up's " +
                hex(o.digest));
    setup_s.push_back(t.setup_s);
    pkts_per_s.push_back(static_cast<double>(t.outcome.packets) / t.run_s);
    reqs_per_s.push_back(static_cast<double>(t.outcome.completed) / t.run_s);
  }
  while (setup_s.size() < kMinSetupSamples) {
    setup_s.push_back(setup_only(w, seed));
  }

  const double timed = static_cast<double>(runs);
  const auto [lo, hi] =
      std::minmax_element(pkts_per_s.begin(), pkts_per_s.end());
  char range[96];
  std::snprintf(range, sizeof range, ", range %.4g..%.4g", *lo, *hi);
  r.add("pkts_per_s", median(pkts_per_s), "pkt/host_s",
        count_base(timed, "timed runs (median)") + range);
  std::fprintf(stderr, "pkts_per_s of each timed run:");
  for (const double v : pkts_per_s) std::fprintf(stderr, " %.4g", v);
  std::fprintf(stderr, "\n");
  r.add("reqs_per_s", median(reqs_per_s), "req/host_s",
        count_base(timed, "timed runs (median)"));
  r.add("setup_s", median(setup_s), "s",
        count_base(static_cast<double>(setup_s.size()), "set-ups (median)"));
  check_outcome(o, w, r);
  std::vector<double> get_us = o.get_us;
  const std::string get_base =
      count_base(static_cast<double>(get_us.size()), "GET samples");
  r.add("get_p50_us", quantile(get_us, 0.5), "sim_us", get_base);
  r.add("get_p99_us", quantile(get_us, kTailQuantile), "sim_us", get_base);
  const double failed_share =
      ratio(static_cast<double>(o.failed), static_cast<double>(o.attempted));
  r.add("success_ratio", 1.0 - failed_share, "ratio",
        "1 - " + format_ratio(static_cast<double>(o.failed), "failed",
                              static_cast<double>(o.attempted), "attempted"));
  r.add("peak_rss_mb", peak_rss_mb(), "MB", "ru_maxrss of this process");
  print_result(r, o.attempted);
  return 0;
}

// ---------------------------------------------------------------------------
// Per-layer metrics.

// The per-layer metrics that come from counters rather than spans.
void add_counter_metrics(const Counters& c, const Outcome& o,
                         const RunTiming& untraced, Result& r) {
  const double pk = static_cast<double>(c.packets);
  r.add("sim.events_per_pkt", ratio(static_cast<double>(c.events), pk), "ratio",
        format_ratio(static_cast<double>(c.events), "events", pk, "packets"));
  r.add("net.pkts_per_batch",
        ratio(static_cast<double>(c.batch_packets),
              static_cast<double>(c.batches)),
        "ratio",
        format_ratio(static_cast<double>(c.batch_packets), "packets",
                     static_cast<double>(c.batches), "batches"));
  r.add("net.pool_high_water", static_cast<double>(c.pool_high_water), "count");
  r.add("net.drops", static_cast<double>(c.net_drops), "count");
  const double allocs_n = static_cast<double>(untraced.allocs.count);
  const double alloc_bytes = static_cast<double>(untraced.allocs.bytes);
  const double run_pk = static_cast<double>(untraced.outcome.packets);
  r.add("net.allocs_per_pkt", ratio(allocs_n, run_pk), "ratio",
        format_ratio(allocs_n, "operator new calls", run_pk, "packets"));
  r.add("net.alloc_bytes_per_pkt", ratio(alloc_bytes, run_pk), "B",
        format_ratio(alloc_bytes, "bytes", run_pk, "packets"));
  const double lb_pk = static_cast<double>(c.lb_packets);
  r.add("lb.new_flow_ratio", ratio(static_cast<double>(c.lb_new_flows), lb_pk),
        "ratio",
        format_ratio(static_cast<double>(c.lb_new_flows), "picks", lb_pk,
                     "lb packets"));
  r.add("core.samples_per_pkt",
        ratio(static_cast<double>(c.samples),
              static_cast<double>(c.lb_forwarded)),
        "ratio",
        format_ratio(static_cast<double>(c.samples), "samples",
                     static_cast<double>(c.lb_forwarded), "on_packet calls"));
  r.add("core.reaction_ms", median(o.reaction_ms), "sim_ms",
        count_base(static_cast<double>(o.reaction_ms.size()),
                   "LB tiers that updated their table after the injection "
                   "(median)"));
  r.add("core.shifts", static_cast<double>(c.shifts), "count");
  r.add("core.slots_disturbed", static_cast<double>(c.slots_disturbed),
        "count");
  r.add("tcp.conns_opened", static_cast<double>(c.conns_opened), "count");
  r.add("tcp.resets", static_cast<double>(c.resets), "count");
  r.add("app.busy_frac", ratio(c.busy_worker_s, c.worker_s), "ratio",
        format_ratio(c.busy_worker_s, "busy worker-s (sim)", c.worker_s,
                     "worker-s (sim)"));
  r.add("app.queue_max", static_cast<double>(c.queue_max), "count");
  r.add("fault.loss_share",
        ratio(static_cast<double>(c.fault_loss),
              static_cast<double>(c.fault_decisions)),
        "ratio",
        format_ratio(static_cast<double>(c.fault_loss), "dropped",
                     static_cast<double>(c.fault_decisions),
                     "fault decisions"));
}

double ns_per(std::int64_t ns, std::uint64_t n) {
  return ratio(static_cast<double>(ns), static_cast<double>(n));
}

// Span metrics of one traced run.
std::map<std::string, double> span_metrics(const SpanLedger& l,
                                           std::size_t pending_max) {
  const LayerTotals& deliver = l.totals(Layer::kSimDeliver);
  const LayerTotals& timer = l.totals(Layer::kSimTimer);
  const LayerTotals& lb = l.totals(Layer::kLb);
  const LayerTotals& pick = l.totals(Layer::kCorePick);
  const LayerTotals& on_packet = l.totals(Layer::kCoreOnPacket);
  const LayerTotals& server = l.totals(Layer::kTcpServer);
  const LayerTotals& client = l.totals(Layer::kTcpClient);
  const LayerTotals& fault = l.totals(Layer::kFault);
  return {
      {"sim.deliver_ns", ns_per(deliver.self_ns, deliver.spans)},
      {"sim.timer_ns", ns_per(timer.self_ns, timer.spans)},
      {"sim.timer_step_share",
       ratio(static_cast<double>(timer.spans),
             static_cast<double>(timer.spans + deliver.spans))},
      {"sim.pending_max", static_cast<double>(pending_max)},
      {"lb.self_ns_per_pkt", ns_per(lb.self_ns, lb.items)},
      {"core.pick_ns", ns_per(pick.self_ns, pick.spans)},
      {"core.on_packet_ns", ns_per(on_packet.self_ns, on_packet.spans)},
      {"tcp.server_ns_per_pkt", ns_per(server.self_ns, server.items)},
      {"tcp.client_ns_per_pkt", ns_per(client.self_ns, client.items)},
      {"fault.ns_per_batch", ns_per(fault.self_ns, fault.spans)},
      {"trace.uncovered_share",
       ratio(static_cast<double>(l.uncovered_ns()),
             static_cast<double>(l.total_ns()))},
  };
}

void print_shares(const SpanLedger& l) {
  const double total = static_cast<double>(l.total_ns());
  const auto share = [&](std::initializer_list<Layer> layers) {
    std::int64_t ns = 0;
    for (const Layer x : layers) ns += l.totals(x).self_ns;
    return 100.0 * static_cast<double>(ns) / total;
  };
  std::fprintf(stderr,
               "self-time shares of one traced run (%.3f s host): sim %.1f%%, "
               "tcp %.1f%%, core %.1f%%, lb %.1f%%, fault %.1f%%, uncovered "
               "%.1f%%\n",
               total / 1e9, share({Layer::kSimDeliver, Layer::kSimTimer}),
               share({Layer::kTcpServer, Layer::kTcpClient}),
               share({Layer::kCorePick, Layer::kCoreOnPacket}),
               share({Layer::kLb}), share({Layer::kFault}),
               100.0 * static_cast<double>(l.uncovered_ns()) / total);
}

// The order the report and JSON list per-layer metrics in.
const char* const kSpanMetricUnits[][2] = {
    {"sim.deliver_ns", "host_ns"},   {"sim.timer_ns", "host_ns"},
    {"sim.timer_step_share", "ratio"}, {"sim.pending_max", "count"},
    {"lb.self_ns_per_pkt", "host_ns"}, {"core.pick_ns", "host_ns"},
    {"core.on_packet_ns", "host_ns"},  {"tcp.server_ns_per_pkt", "host_ns"},
    {"tcp.client_ns_per_pkt", "host_ns"}, {"fault.ns_per_batch", "host_ns"},
    {"trace.uncovered_share", "ratio"},
};

int run_traced_cluster(Workload w, std::uint64_t seed, double seconds) {
  Result r;
  const ClusterRigConfig cfg =
      w == Workload::kFig3 ? fig3_config(seed) : churn_noise_config(seed);
  Counters counters;
  const RunTiming warm =
      cluster_run(cfg, [&](ClusterRig& rig) { add_counters(rig, counters); });
  const Outcome& o = warm.outcome;
  check_outcome(o, w, r);

  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<std::map<std::string, double>> per_run;
  RunTiming last_untraced;
  bool digests_match = true;
  const std::int64_t start = host_now_ns();
  int pairs = 0;
  while (pairs < 2 || seconds_between(start, host_now_ns()) < seconds) {
    ++pairs;
    last_untraced = cluster_run(cfg);
    r.check(last_untraced.outcome.digest == o.digest,
            "untraced run digest differs from the warm-up's");
    untraced_s.push_back(last_untraced.run_s);

    SpanLedger ledger;
    TracedRig traced{cfg, ledger};
    traced.run();
    const std::uint64_t d = traced.state_digest();
    digests_match = digests_match && d == o.digest;
    r.check(d == o.digest, "traced digest " + hex(d) +
                               " differs from the untraced digest " +
                               hex(o.digest));
    r.check(ledger.balanced(), "span self times do not add up to the total");
    traced_s.push_back(static_cast<double>(ledger.total_ns()) / 1e9);
    per_run.push_back(span_metrics(ledger, traced.pending_max()));
    if (pairs == 1) print_shares(ledger);
  }
  std::fprintf(stderr, "traced digests %s untraced digest %s over %d runs\n",
               digests_match ? "all equal the" : "DIFFER from the",
               hex(o.digest).c_str(), pairs);

  for (const auto& [name, unit] : kSpanMetricUnits) {
    std::vector<double> v;
    for (const auto& m : per_run) v.push_back(m.at(name));
    r.add(name, median(v), unit,
          count_base(static_cast<double>(v.size()), "traced runs (median)"));
  }
  add_counter_metrics(counters, o, last_untraced, r);
  const double tr = median(traced_s);
  const double un = median(untraced_s);
  r.add("trace.overhead", ratio(tr, un) - 1.0, "ratio",
        format_ratio(tr, "traced s", un, "untraced s") + " - 1");
  r.add("sync.speedup", 0.0, "ratio", "not sharded");
  r.add("sync.w4_pkts_per_s", 0.0, "pkt/host_s", "not sharded");
  r.add("sync.cross_pkt_share", 0.0, "ratio", "not sharded");
  print_result(r, o.attempted);
  return 0;
}

int run_traced_sharded(std::uint64_t seed, double seconds) {
  Result r;
  Counters counters;
  std::uint64_t cross = 0;
  const RunTiming warm =
      sharded_run(sharded_config(seed, kParallelWorkers), [&](ShardedRig& rig) {
        add_counters(rig, counters);
        cross = rig.cross_packets();
      });
  const Outcome& o = warm.outcome;
  check_outcome(o, Workload::kSharded, r);
  std::vector<double> w1_pps;
  std::vector<double> w4_pps;
  RunTiming last_w4;
  const std::int64_t start = host_now_ns();
  while (w1_pps.size() < 2 || seconds_between(start, host_now_ns()) < seconds) {
    const RunTiming w1 = run_once(Workload::kSharded, seed, 1);
    last_w4 = run_once(Workload::kSharded, seed, kParallelWorkers);
    r.check(w1.outcome.digest == o.digest && last_w4.outcome.digest == o.digest,
            "sharded digest differs across worker counts or runs");
    w1_pps.push_back(static_cast<double>(w1.outcome.packets) / w1.run_s);
    w4_pps.push_back(static_cast<double>(last_w4.outcome.packets) /
                     last_w4.run_s);
  }
  // Span metrics need the traced replica, which only ClusterRig workloads
  // have; they read 0 here.
  for (const auto& [name, unit] : kSpanMetricUnits) {
    r.add(name, 0.0, unit, "not traced on the sharded runner");
  }
  add_counter_metrics(counters, o, last_w4, r);
  r.add("trace.overhead", 0.0, "ratio", "not traced on the sharded runner");
  const double p4 = median(w4_pps);
  const double p1 = median(w1_pps);
  r.add("sync.speedup", ratio(p4, p1), "ratio",
        format_ratio(p4, "pkt/s at 4 workers", p1, "pkt/s at 1 worker") +
            ", medians over " + std::to_string(w1_pps.size()) + " runs each");
  r.add("sync.w4_pkts_per_s", p4, "pkt/host_s",
        count_base(static_cast<double>(w4_pps.size()),
                   "4-worker runs (median)"));
  r.add("sync.cross_pkt_share",
        ratio(static_cast<double>(cross),
              static_cast<double>(counters.packets)),
        "ratio",
        format_ratio(static_cast<double>(cross), "cross packets",
                     static_cast<double>(counters.packets), "packets"));
  print_result(r, o.attempted);
  return 0;
}

int driver_main(int argc, char** argv) {
  std::string workload;
  std::string mode = "untraced";
  std::int64_t seed = 2022;
  double seconds = 10;
  FlagSet flags{"perfbench driver: one workload, one JSON result line"};
  flags.add("workload", &workload, "fig3 | churn_noise | sharded");
  flags.add("seed", &seed, "workload seed");
  flags.add("seconds", &seconds, "host seconds of timed runs");
  flags.add("mode", &mode, "untraced | traced");
  if (!flags.parse(argc, argv)) return 2;
  Workload w{};
  if (!parse_workload(workload, &w) ||
      (mode != "untraced" && mode != "traced")) {
    std::fprintf(stderr, "unknown --workload or --mode\n");
    return 2;
  }
  std::fprintf(stderr,
               "perfbench %s/%s seed %lld: nproc %u, build %s, compiler %s, "
               "alloc counting %s\n",
               workload.c_str(), mode.c_str(), static_cast<long long>(seed),
               std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
               PERFBENCH_COMPILER, allocs::counting_enabled() ? "on" : "off");
  // A fixed mmap threshold turns off glibc's adaptive one, which otherwise
  // rises after the first large free and moves later large blocks onto the
  // heap, so peak RSS would depend on how many runs came before.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  const auto s = static_cast<std::uint64_t>(seed);
  if (mode == "untraced") return run_untraced(w, s, seconds);
  if (w == Workload::kSharded) return run_traced_sharded(s, seconds);
  return run_traced_cluster(w, s, seconds);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::driver_main(argc, argv); }
