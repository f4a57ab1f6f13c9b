// Sharded parallel rig throughput sweep (BENCH_parallel.json).
//
// Runs the same ShardedRig topology at worker counts {1, 2, 4, 8} and
// reports aggregate packets/s for each, the parallel speedups relative to
// the 1-worker oracle, and — the hard gate — whether the combined digest is
// bit-identical across every worker count. Perf numbers never gate (runner
// hardware varies; `hw_threads` is recorded so a 1-core container's ~1×
// "speedup" reads as what it is); digest divergence or a malformed report
// exits non-zero.
#include <cstdint>
#include <cstdio>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "scenario/sharded_rig.h"
#include "util/bench_cli.h"
#include "util/json.h"
#include "util/time.h"

namespace inband {
namespace {

// detlint:allow(wall-clock): this harness *measures* wall time; nothing simulated depends on it
using Clock = std::chrono::steady_clock;

double wall_seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct SweepPoint {
  int workers = 0;
  double wall_ms = 0;
  double packets_per_sec = 0;
  std::uint64_t packets = 0;
  std::uint64_t cross_packets = 0;
  std::uint64_t records = 0;
  std::uint64_t digest = 0;
};

ShardedRigConfig sweep_config(int shards, SimTime duration, int servers,
                              int clients, int remote_clients,
                              SimTime cross_latency, std::int64_t seed) {
  ShardedRigConfig cfg;
  cfg.num_shards = shards;
  cfg.shard.mode = LbMode::kInband;
  cfg.shard.num_servers = servers;
  cfg.shard.num_client_hosts = clients;
  cfg.shard.duration = duration;
  cfg.shard.inject_time = duration / 2;
  cfg.shard.seed = static_cast<std::uint64_t>(seed);
  cfg.shard.client.connections = 4;
  cfg.shard.client.pipeline = 4;
  cfg.shard.server.workers = 8;
  cfg.shard.share_sample_interval = ms(10);
  cfg.shard.audit_interval = 0;
  cfg.cross_latency = cross_latency;
  cfg.remote_clients_per_shard = remote_clients;
  cfg.remote_client.connections = 2;
  cfg.remote_client.pipeline = 2;
  cfg.remote_client.requests_per_conn = 50;
  return cfg;
}

SweepPoint run_point(ShardedRigConfig cfg, int workers) {
  cfg.workers = workers;
  SweepPoint p;
  p.workers = workers;
  ShardedRig rig{cfg};
  const auto start = Clock::now();
  rig.run();
  const double secs = wall_seconds(start, Clock::now());
  p.wall_ms = secs * 1e3;
  p.packets = rig.total_packets_sent();
  p.cross_packets = rig.cross_packets();
  p.records = rig.total_records();
  p.packets_per_sec = static_cast<double>(p.packets) / secs;
  p.digest = rig.combined_digest();
  return p;
}

const char* const kRequiredMetricKeys[] = {
    "shards",          "hw_threads",
    "rig_packets",     "cross_packets",
    "w1_packets_per_sec", "w2_packets_per_sec",
    "w4_packets_per_sec", "w8_packets_per_sec",
    "speedup_w2",      "speedup_w4",
    "speedup_w8",      "combined_digest",
    "digest_match",
};

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
  for (const char* key : kRequiredMetricKeys) {
    if (metrics->find(key) == nullptr) {
      *error = std::string{"missing metrics key: "} + key;
      return false;
    }
  }
  const JsonValue* match = metrics->find("digest_match");
  if (!match->is_bool()) {
    *error = "digest_match is not a bool";
    return false;
  }
  return true;
}

int bench_main(int argc, char** argv) {
  BenchCli cli{"parallel_rig",
               "sharded parallel rig worker sweep (BENCH_parallel.json)"};
  cli.set_json_default("BENCH_parallel.json");
  std::int64_t shards = 8;
  std::int64_t rig_ms = 1000;
  std::int64_t servers = 2;
  std::int64_t clients = 2;
  std::int64_t remote_clients = 1;
  std::int64_t cross_us = 200;
  cli.flags().add("shards", &shards, "number of shards (one LB tier each)");
  cli.flags().add("rig_ms", &rig_ms, "simulated ms per sweep point");
  cli.flags().add("servers", &servers, "servers per shard");
  cli.flags().add("clients", &clients, "local client hosts per shard");
  cli.flags().add("remote_clients", &remote_clients,
                  "cross-shard client hosts per shard");
  cli.flags().add("cross_us", &cross_us,
                  "cross-shard trunk latency (the lookahead), microseconds");
  if (!cli.parse(argc, argv)) return 1;

  if (cli.quick()) {
    shards = 4;
    rig_ms = 300;
  }

  const ShardedRigConfig cfg = sweep_config(
      static_cast<int>(shards), ms(rig_ms), static_cast<int>(servers),
      static_cast<int>(clients), static_cast<int>(remote_clients),
      us(cross_us), cli.seed());
  const unsigned hw = std::thread::hardware_concurrency();
  std::fprintf(stderr,
               "parallel rig: %lld shards x %lldms, %u hardware thread(s)\n",
               static_cast<long long>(shards), static_cast<long long>(rig_ms),
               hw);

  std::vector<SweepPoint> points;
  for (const int w : {1, 2, 4, 8}) {
    points.push_back(run_point(cfg, w));
    const SweepPoint& p = points.back();
    std::fprintf(stderr,
                 "  w=%d: %.0fk pkts/s wall (%.0f ms), %llu pkts "
                 "(%llu cross), digest %016llx\n",
                 w, p.packets_per_sec / 1e3, p.wall_ms,
                 static_cast<unsigned long long>(p.packets),
                 static_cast<unsigned long long>(p.cross_packets),
                 static_cast<unsigned long long>(p.digest));
  }

  bool digest_match = true;
  for (const SweepPoint& p : points) {
    digest_match = digest_match && p.digest == points[0].digest &&
                   p.packets == points[0].packets &&
                   p.records == points[0].records;
  }
  const double base = points[0].packets_per_sec;

  const bool wrote = cli.write_json([&](JsonWriter& w) {
    w.kv("shards", shards);
    w.kv("rig_ms", rig_ms);
    w.kv("hw_threads", static_cast<std::int64_t>(hw));
    w.kv("rig_packets", points[0].packets);
    w.kv("cross_packets", points[0].cross_packets);
    w.kv("records", points[0].records);
    for (const SweepPoint& p : points) {
      std::string prefix = "w";
      prefix += std::to_string(p.workers);
      w.kv((prefix + "_packets_per_sec").c_str(), p.packets_per_sec);
      w.kv((prefix + "_wall_ms").c_str(), p.wall_ms);
    }
    w.kv("speedup_w2", base > 0 ? points[1].packets_per_sec / base : 0.0);
    w.kv("speedup_w4", base > 0 ? points[2].packets_per_sec / base : 0.0);
    w.kv("speedup_w8", base > 0 ? points[3].packets_per_sec / base : 0.0);
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(points[0].digest));
    w.kv("combined_digest", hex);
    w.kv("digest_match", digest_match);
  });
  if (!wrote) return 1;

  int rc = 0;
  if (!digest_match) {
    std::fprintf(stderr,
                 "FAIL: combined digests diverged across worker counts\n");
    rc = 1;
  }
  if (!cli.json_path().empty()) {
    std::string error;
    if (!validate_report(cli.json_path(), &error)) {
      std::fprintf(stderr, "FAIL: %s schema: %s\n", cli.json_path().c_str(),
                   error.c_str());
      rc = 1;
    }
  }
  return rc;
}

}  // namespace
}  // namespace inband

int main(int argc, char** argv) { return inband::bench_main(argc, argv); }
