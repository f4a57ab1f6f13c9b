#include "scenario/sharded_rig.h"

#include <algorithm>
#include <string>
#include <utility>

#include "check/state_digest.h"
#include "util/assert.h"

namespace inband {

// One shard's conservative driver. ShardProgram toward the worker pool,
// RemoteEgress toward its own Network: packets sent over a missing link are
// routed onto the out-channel owning the destination address.
//
// The merge rule (the whole determinism story — sim/parallel.h): the shard
// repeatedly commits the *visible* item with the smallest
// (time, cross-before-local, channel-index) key, where the items are the
// local event queue's head and each in-channel's head, and a commit is
// allowed only when no in-channel could still produce an item that would
// sort before the candidate. Per-channel deliver times are monotone, so
// only a currently-empty channel can surprise us, and its lower_bound()
// (announced horizon) bounds any future arrival. The committed sequence is
// therefore a pure function of the inputs: how fast neighbors announce
// affects only when a commit happens, never which item commits next.
INBAND_SHARD_LOCAL(owner)
class ShardExecutor : public ShardProgram, public RemoteEgress {
 public:
  ShardExecutor(ClusterRig& rig, SimTime end, std::vector<ShardChannel*> in,
                std::vector<std::pair<Ipv4, ShardChannel*>> out_routes)
      : rig_{rig}, end_{end}, in_{std::move(in)},
        out_routes_{std::move(out_routes)} {
    std::sort(out_routes_.begin(), out_routes_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [addr, ch] : out_routes_) {
      (void)addr;
      if (std::find(out_channels_.begin(), out_channels_.end(), ch) ==
          out_channels_.end()) {
        out_channels_.push_back(ch);
      }
    }
    rig_.net().set_remote_egress(this);
  }

  // --- RemoteEgress (called from inside rig_'s event handlers) ---

  bool forward(const Packet& pkt, Ipv4 from, Ipv4 to) override {
    if (teardown_) {
      // Post-run graceful-close traffic (FINs from stop()). The
      // single-threaded rig schedules these and never runs them; the
      // sharded rig swallows them at the boundary for the same effect.
      ++teardown_drops_;
      return true;
    }
    const auto it = std::lower_bound(
        out_routes_.begin(), out_routes_.end(), to,
        [](const auto& route, Ipv4 addr) { return route.first < addr; });
    if (it == out_routes_.end() || it->first != to) return false;
    it->second->push(rig_.sim().now(), from, to, pkt);
    ++egressed_;
    return true;
  }

  // --- ShardProgram ---

  bool advance() override {
    if (done_) return false;
    bool progress = false;
    for (;;) {
      // Visible candidate with the smallest (time, cross-before-local,
      // channel-index) key.
      const SimTime local_t = rig_.sim().next_event_time();
      int best_ch = -1;
      SimTime best_t = kNoTime;
      for (std::size_t i = 0; i < in_.size(); ++i) {
        const CrossPacket* head = in_[i]->peek();
        if (head == nullptr) continue;
        if (best_ch < 0 || head->deliver_at < best_t) {
          best_t = head->deliver_at;
          best_ch = static_cast<int>(i);
        }
      }
      const bool cross =
          best_ch >= 0 && (local_t == kNoTime || best_t <= local_t);
      const SimTime t = cross ? best_t : local_t;
      if (t == kNoTime || t > end_) break;

      // Commit gate. An unseen arrival on channel i lands at or after its
      // lower bound; at exactly t it preempts the candidate only if it
      // outranks it (cross beats local, lower channel index beats higher).
      bool safe = true;
      for (std::size_t i = 0; i < in_.size(); ++i) {
        const bool outranks = !cross || static_cast<int>(i) < best_ch;
        const SimTime lb = in_[i]->lower_bound();
        if (outranks ? lb <= t : lb < t) {
          safe = false;
          break;
        }
      }
      if (!safe) break;  // conservatively blocked; retry after neighbors move

      if (cross) {
        deliver(*in_[static_cast<std::size_t>(best_ch)]);
      } else {
        rig_.sim().step();
      }
      progress = true;
    }

    // Completion: provably nothing local or inbound at or before the end.
    const SimTime local_t = rig_.sim().next_event_time();
    bool can_finish = local_t == kNoTime || local_t > end_;
    for (ShardChannel* ch : in_) {
      can_finish = can_finish && ch->lower_bound() > end_;
    }
    if (can_finish) {
      rig_.sim().advance_to(end_);
      done_ = true;
      progress = true;
    }
    return progress;
  }

  void publish() override {
    const SimTime f = frontier();
    for (ShardChannel* ch : out_channels_) ch->announce(f);
  }

  bool done() const override { return done_; }

  void begin_teardown() { teardown_ = true; }

  std::uint64_t egressed() const { return egressed_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t teardown_drops() const { return teardown_drops_; }

 private:
  // Lower bound on anything this shard may still emit: it emits only while
  // committing an item, and every committable item is at or after both the
  // local queue head and every in-channel's lower bound.
  SimTime frontier() {
    if (done_) return kFrontierMax;
    const SimTime local_t = rig_.sim().next_event_time();
    SimTime f = local_t == kNoTime ? kFrontierMax : local_t;
    for (ShardChannel* ch : in_) f = std::min(f, ch->lower_bound());
    return std::min(f, kFrontierMax);
  }

  void deliver(ShardChannel& ch) {
    SimTime at = kNoTime;
    Ipv4 from = 0;
    Ipv4 to = 0;
    Packet pkt = ch.take_detached(&at, &from, &to);
    rig_.sim().advance_to(at);
    Host* dst = rig_.net().host_at(to);
    INBAND_ASSERT(dst != nullptr, "cross-shard packet for an unknown host");
    PacketRef ref = rig_.net().pool().acquire();
    *ref = std::move(pkt);
    PacketBatch batch;
    batch.push(std::move(ref));
    dst->handle_batch(std::move(batch));
    ++delivered_;
  }

  ClusterRig& rig_;
  const SimTime end_;
  std::vector<ShardChannel*> in_;
  std::vector<std::pair<Ipv4, ShardChannel*>> out_routes_;  // sorted by addr
  std::vector<ShardChannel*> out_channels_;                 // unique targets
  bool done_ = false;
  bool teardown_ = false;
  std::uint64_t egressed_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t teardown_drops_ = 0;
};

namespace {

// splitmix64 finalizer: decorrelates per-shard digests before the
// commutative fold so permuted shard state cannot cancel out.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ShardedRig::ShardedRig(ShardedRigConfig config) : config_{std::move(config)} {
  const int S = config_.num_shards;
  INBAND_ASSERT(S >= 1);
  INBAND_ASSERT(config_.workers >= 1);
  INBAND_ASSERT(config_.remote_clients_per_shard >= 0);
  INBAND_ASSERT(config_.cross_latency > 0,
                "cross-shard lookahead must be positive (sim/parallel.h)");

  if (S > 1) {
    channels_.resize(static_cast<std::size_t>(2 * S));
    for (int s = 0; s < S; ++s) {
      channels_[static_cast<std::size_t>(2 * s)] = std::make_unique<
          ShardChannel>(static_cast<std::uint32_t>(2 * s),
                        config_.cross_latency);
      channels_[static_cast<std::size_t>(2 * s + 1)] = std::make_unique<
          ShardChannel>(static_cast<std::uint32_t>(2 * s + 1),
                        config_.cross_latency);
    }
  }

  shards_.resize(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) {
    ClusterRigConfig cfg = config_.shard;
    cfg.addr_base = s;
    constexpr std::uint64_t kSeedStride = 1000;
    cfg.seed = config_.shard.seed + kSeedStride * static_cast<std::uint64_t>(s);
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    sh.rig = std::make_unique<ClusterRig>(std::move(cfg));

    const ClusterRigConfig& scfg = sh.rig->config();
    for (int i = 0; i < config_.remote_clients_per_shard; ++i) {
      auto host = std::make_unique<TcpHost>(
          sh.rig->sim(), sh.rig->net(), rig_remote_client_addr(s, i),
          "rclient" + std::to_string(s) + "_" + std::to_string(i), scfg.tcp,
          scfg.seed + 600 + static_cast<std::uint64_t>(i));
      const int target = (s + 1) % S;
      const Ipv4 vip = rig_vip_addr(target, i % scfg.num_lbs);
      if (S == 1) {
        // Single shard: the "remote" path is ordinary local links with the
        // trunk's latency — same workload shape, no channels.
        sh.rig->net().add_link(host->addr(), vip,
                               {scfg.bandwidth_bps, config_.cross_latency, 0});
        for (int sv = 0; sv < scfg.num_servers; ++sv) {
          sh.rig->net().add_link(
              rig_server_addr(s, sv), host->addr(),
              {scfg.bandwidth_bps, config_.cross_latency, 0});
        }
      }
      KvClientConfig rc = config_.remote_client;
      rc.server = Endpoint{vip, scfg.server.port};
      rc.seed = scfg.seed + 700 + static_cast<std::uint64_t>(i);
      auto client = std::make_unique<KvClient>(*host, rc);
      // &sh.remote_records is stable: shards_ never grows after resize().
      client->set_recorder([recs = &sh.remote_records](
                               const RequestRecord& r) {
        recs->push_back(r);
      });
      sh.remote.push_back({std::move(host), std::move(client)});
    }
  }

  for (int s = 0; s < S; ++s) {
    std::vector<ShardChannel*> in;
    std::vector<std::pair<Ipv4, ShardChannel*>> routes;
    if (S > 1) {
      const int prev = (s + S - 1) % S;
      const int next = (s + 1) % S;
      // Fixed in-channel order = merge-rule priority: requests from the
      // previous shard first, responses from the next shard second.
      in.push_back(channels_[static_cast<std::size_t>(2 * prev)].get());
      in.push_back(channels_[static_cast<std::size_t>(2 * next + 1)].get());
      for (int l = 0; l < config_.shard.num_lbs; ++l) {
        routes.emplace_back(rig_vip_addr(next, l),
                            channels_[static_cast<std::size_t>(2 * s)].get());
      }
      for (int i = 0; i < config_.remote_clients_per_shard; ++i) {
        routes.emplace_back(
            rig_remote_client_addr(prev, i),
            channels_[static_cast<std::size_t>(2 * s + 1)].get());
      }
    }
    shards_[static_cast<std::size_t>(s)].exec = std::make_unique<
        ShardExecutor>(*shards_[static_cast<std::size_t>(s)].rig,
                       config_.shard.duration, std::move(in),
                       std::move(routes));
  }
}

ShardedRig::~ShardedRig() = default;

KvClient& ShardedRig::remote_client(int s, int i) {
  return *shards_[static_cast<std::size_t>(s)]
              .remote[static_cast<std::size_t>(i)]
              .client;
}

void ShardedRig::run() {
  INBAND_ASSERT(!ran_, "ShardedRig::run() called twice");
  ran_ = true;
  for (Shard& sh : shards_) {
    sh.rig->start();
    for (Shard::Remote& r : sh.remote) r.client->start();
  }
  std::vector<ShardProgram*> programs;
  programs.reserve(shards_.size());
  for (Shard& sh : shards_) programs.push_back(sh.exec.get());
  run_shard_programs(programs, config_.workers, config_.sched_seed);
  for (Shard& sh : shards_) {
    sh.exec->begin_teardown();
    for (Shard::Remote& r : sh.remote) r.client->stop();
    sh.rig->finish();
  }
}

std::uint64_t ShardedRig::shard_digest(int s) {
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  StateDigest d;
  d.mix(sh.rig->state_digest());
  for (Shard::Remote& r : sh.remote) r.host->stack().digest_state(d);
  digest_records(d, sh.remote_records);
  d.mix(sh.exec->egressed());
  d.mix(sh.exec->delivered());
  return d.value();
}

std::uint64_t ShardedRig::combined_digest() {
  std::uint64_t sum = 0;
  for (int s = 0; s < num_shards(); ++s) {
    const std::uint64_t salt =
        std::uint64_t{0x9e3779b97f4a7c15ULL} * static_cast<std::uint64_t>(s + 1);
    sum += mix64(shard_digest(s) + salt);
  }
  return sum;
}

std::uint64_t ShardedRig::cross_packets() const {
  std::uint64_t n = 0;
  for (const auto& ch : channels_) n += ch->pushed();
  return n;
}

std::uint64_t ShardedRig::total_packets_sent() const {
  std::uint64_t n = 0;
  for (const Shard& sh : shards_) n += sh.rig->net().stats().packets_sent;
  return n;
}

std::uint64_t ShardedRig::total_records() const {
  std::uint64_t n = 0;
  for (const Shard& sh : shards_) {
    n += sh.rig->records().size() + sh.remote_records.size();
  }
  return n;
}

}  // namespace inband
