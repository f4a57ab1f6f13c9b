// Pre-rework reference implementations, kept for differential testing and
// benchmarking.
//
// LegacyEventQueue and LegacyFlowStateTable are the event queue and flow
// table as they existed before the slab-pool/eviction-index rework (PR 5):
// std::function handlers in an unordered_map, and an O(n) eviction scan.
// They are the behavioral spec the reworked implementations must match —
// tests drive identical operation sequences through old and new and compare
// pop order, eviction victims, and digests; micro_dataplane benches them as
// the "before" column of the speedup claim.
//
// LegacyAlphaShiftController is the α-shift controller as it existed before
// it was rehomed onto the WeightController interface: the oracle the
// refactored controller must match decision-for-decision, bit for bit.
//
// LegacyScalarLink / LegacyScalarSendPath are the per-packet send path as it
// stood before the PacketBatch redesign (PR 9): one stamp, one verdict, one
// link clock-in per scalar send call. The batch path must reproduce
// their delivery times and order bit-for-bit; the differential suite drives
// identical traffic through both and compares (pkt_id, deliver_at) streams.
//
// Not for production use.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "check/state_digest.h"
#include "core/alpha_shift_controller.h"  // AlphaShiftConfig
#include "core/flow_state_table.h"
#include "core/server_latency_tracker.h"
#include "net/flow.h"
#include "net/link.h"     // LinkParams
#include "net/network.h"  // SendVerdict
#include "sim/event_queue.h"  // EventId / kInvalidEventId
#include "telemetry/ewma.h"
#include "util/assert.h"
#include "util/shard.h"
#include "util/time.h"

namespace inband {

INBAND_SHARD_LOCAL(owner)
class LegacyEventQueue {
 public:
  EventId push(SimTime t, std::function<void()> fn) {
    INBAND_ASSERT(fn != nullptr);
    const EventId id = next_id_++;
    heap_.push({t, id});
    // hotlint:allow(hot-growth): reference model, differential tests only
    handlers_.emplace(id, std::move(fn));
    ++live_;
    return id;
  }

  bool cancel(EventId id) {
    const auto erased = handlers_.erase(id);
    if (erased == 0) return false;
    INBAND_ASSERT(live_ > 0);
    --live_;
    return true;
  }

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  SimTime next_time() {
    drop_dead_heads();
    return heap_.empty() ? kNoTime : heap_.top().t;
  }

  struct Popped {
    SimTime t;
    std::function<void()> fn;
  };

  Popped pop() {
    drop_dead_heads();
    INBAND_ASSERT(!heap_.empty(), "pop() on empty event queue");
    const HeapEntry head = heap_.top();
    heap_.pop();
    auto it = handlers_.find(head.id);
    INBAND_ASSERT(it != handlers_.end());
    Popped out{head.t, std::move(it->second)};
    handlers_.erase(it);
    --live_;
    last_popped_ = head.t;
    return out;
  }

  std::uint64_t total_pushed() const { return next_id_ - 1; }
  SimTime last_popped() const { return last_popped_; }

  void digest_state(StateDigest& digest) {
    digest.mix(next_id_);
    digest.mix(live_);
    digest.mix_i64(last_popped_);
    digest.mix_i64(next_time());
  }

 private:
  struct HeapEntry {
    SimTime t;
    EventId id;
    bool operator>(const HeapEntry& o) const {
      return t != o.t ? t > o.t : id > o.id;
    }
  };

  void drop_dead_heads() {
    while (!heap_.empty() &&
           handlers_.find(heap_.top().id) == handlers_.end()) {
      heap_.pop();
    }
  }

  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap_;
  std::unordered_map<EventId, std::function<void()>> handlers_;
  EventId next_id_ = 1;
  std::size_t live_ = 0;
  SimTime last_popped_ = kNoTime;
};

INBAND_SHARD_LOCAL(lb)
class LegacyFlowStateTable {
 public:
  explicit LegacyFlowStateTable(FlowStateTableConfig config = {})
      : config_{config} {
    INBAND_ASSERT(config_.max_entries > 0);
  }

  FlowState& get_or_create(const FlowKey& flow, SimTime now) {
    auto it = map_.find(flow);
    if (it == map_.end()) {
      if (map_.size() >= config_.max_entries) evict_stalest();
      // hotlint:allow(hot-growth): reference model, differential tests only
      it = map_.emplace(flow, Entry{}).first;
    }
    it->second.last_seen = now;
    return it->second.state;
  }

  void erase(const FlowKey& flow) { map_.erase(flow); }

  void maybe_sweep(SimTime now) {
    if (now - last_sweep_ < config_.sweep_interval) return;
    last_sweep_ = now;
    // detlint:allow(unordered-iter): erases the idle subset; expiry is decided per entry, independent of visit order
    for (auto it = map_.begin(); it != map_.end();) {
      if (now - it->second.last_seen >= config_.idle_timeout) {
        it = map_.erase(it);
        ++expirations_;
      } else {
        ++it;
      }
    }
  }

  std::size_t size() const { return map_.size(); }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t expirations() const { return expirations_; }

  void digest_state(StateDigest& digest) const {
    UnorderedDigest entries;
    // detlint:allow(unordered-iter): per-entry digests fold through the commutative UnorderedDigest combiner
    for (const auto& [flow, entry] : map_) {
      StateDigest e;
      e.mix(hash_flow(flow));
      e.mix_i64(entry.last_seen);
      e.mix_i64(entry.state.syn_at);
      EnsembleTimeout::digest_state(entry.state.ensemble, e);
      entries.add(e);
    }
    entries.mix_into(digest);
    digest.mix(evictions_);
    digest.mix(expirations_);
    digest.mix_i64(last_sweep_);
  }

 private:
  struct Entry {
    FlowState state;
    SimTime last_seen = kNoTime;
  };

  void evict_stalest() {
    // The O(n) scan the recency list replaced; ties on last_seen break on
    // the flow key so old and new pick the same victim.
    auto victim = map_.end();
    // detlint:allow(unordered-iter): selects the unique minimum by a value-based key; the result is independent of visit order
    for (auto it = map_.begin(); it != map_.end(); ++it) {
      if (victim == map_.end() ||
          it->second.last_seen < victim->second.last_seen ||
          (it->second.last_seen == victim->second.last_seen &&
           it->first < victim->first)) {
        victim = it;
      }
    }
    if (victim != map_.end()) {
      map_.erase(victim);
      ++evictions_;
    }
  }

  FlowStateTableConfig config_;
  std::unordered_map<FlowKey, Entry, FlowKeyHash> map_;
  SimTime last_sweep_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t expirations_ = 0;
};

// The directed-link clock-in logic exactly as it stood before the batch
// redesign, decoupled from the Simulator: the caller supplies `now`. One
// call = one packet, same virtual-queue admission, serialization,
// propagation, jitter draw, and FIFO monotonicity as the old
// by-value Link::transmit overload.
INBAND_SHARD_LOCAL(shard)
class LegacyScalarLink {
 public:
  explicit LegacyScalarLink(LinkParams params)
      : params_{params}, jitter_rng_{params.jitter_seed} {
    INBAND_ASSERT(params_.bandwidth_bps > 0);
  }

  void set_extra_delay(SimTime d) { extra_delay_ = d; }

  SimTime serialization_delay(std::uint64_t bytes) const {
    const auto num = static_cast<__uint128_t>(bytes) * 8u * 1'000'000'000u;
    const auto d = static_cast<SimTime>(
        (num + params_.bandwidth_bps - 1) / params_.bandwidth_bps);
    return std::max<SimTime>(d, 1);
  }

  // Clocks one packet of `wire_bytes` in at time `now`. Returns the delivery
  // time, or kNoTime on a virtual-queue drop.
  SimTime transmit_at(SimTime now, std::uint64_t wire_bytes) {
    if (params_.queue_bytes != 0) {
      const SimTime queue_limit = serialization_delay(params_.queue_bytes);
      const SimTime backlog = busy_until_ > now ? busy_until_ - now : 0;
      if (backlog > queue_limit) {
        ++drops_;
        return kNoTime;
      }
    }
    const SimTime start = std::max(now, busy_until_);
    const SimTime done = start + serialization_delay(wire_bytes);
    busy_until_ = done;
    ++tx_packets_;
    SimTime deliver_at = done + params_.prop_delay + extra_delay_;
    if (params_.jitter_median > 0 && params_.jitter_sigma > 0.0) {
      deliver_at += static_cast<SimTime>(jitter_rng_.lognormal_median(
          static_cast<double>(params_.jitter_median), params_.jitter_sigma));
    }
    deliver_at = std::max(deliver_at, last_delivery_ + 1);
    last_delivery_ = deliver_at;
    return deliver_at;
  }

  std::uint64_t tx_packets() const { return tx_packets_; }
  std::uint64_t drops() const { return drops_; }

 private:
  LinkParams params_;
  Rng jitter_rng_;
  SimTime extra_delay_ = 0;
  SimTime busy_until_ = 0;
  SimTime last_delivery_ = 0;
  std::uint64_t tx_packets_ = 0;
  std::uint64_t drops_ = 0;
};

// The old scalar network send applied to one directed link: stamp a fresh
// pkt_id, apply the scalar interceptor verdict (drop / duplicate_hold /
// hold), clock the survivors into the link one at a time. Held packets sit
// in an internal (release-time, seq) min-heap that mirrors the simulator's
// event ordering; they clock in when the replayed clock passes their release
// time. The recorded (pkt_id, deliver_at) stream is in clock-in order, which
// on a FIFO link equals delivery order — the stream the batch path must
// reproduce exactly.
INBAND_SHARD_LOCAL(shard)
class LegacyScalarSendPath {
 public:
  struct Delivery {
    std::uint64_t pkt_id;
    SimTime deliver_at;
  };

  explicit LegacyScalarSendPath(LinkParams params) : link_{params} {}

  LegacyScalarLink& link() { return link_; }

  // Replays one scalar send call at time `now`. Returns what
  // dispatch() returned pre-batch: false only on a link queue drop of the
  // original packet.
  bool send(SimTime now, std::uint64_t wire_bytes,
            const SendVerdict& verdict = {}) {
    release_held(now);
    const std::uint64_t id = next_pkt_id_++;
    ++packets_sent_;
    if (verdict.drop) return true;  // lost in the network, send "succeeded"
    if (verdict.duplicate_hold != kNoTime) {
      held_.push({now + verdict.duplicate_hold, next_hold_seq_++, id,
                  wire_bytes});
    }
    if (verdict.hold > 0) {
      held_.push({now + verdict.hold, next_hold_seq_++, id, wire_bytes});
      return true;
    }
    const bool ok = clock_in(now, id, wire_bytes);
    if (!ok) ++packets_dropped_;
    return ok;
  }

  // Advances the replayed clock to `now`, clocking in every held packet
  // whose release time has passed. Call with the end-of-run time to flush.
  void release_held(SimTime now) {
    while (!held_.empty() && held_.top().at <= now) {
      const Held h = held_.top();
      held_.pop();
      if (!clock_in(h.at, h.pkt_id, h.wire_bytes)) ++packets_dropped_;
    }
  }

  const std::vector<Delivery>& deliveries() const { return deliveries_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t packets_dropped() const { return packets_dropped_; }

  std::uint64_t delivery_digest() const {
    StateDigest d;
    d.mix(deliveries_.size());
    for (const auto& del : deliveries_) {
      d.mix(del.pkt_id);
      d.mix_i64(del.deliver_at);
    }
    return d.value();
  }

 private:
  struct Held {
    SimTime at;
    std::uint64_t seq;  // schedule order breaks release-time ties
    std::uint64_t pkt_id;
    std::uint64_t wire_bytes;
    bool operator>(const Held& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  bool clock_in(SimTime now, std::uint64_t pkt_id, std::uint64_t wire_bytes) {
    const SimTime deliver_at = link_.transmit_at(now, wire_bytes);
    if (deliver_at == kNoTime) return false;
    // hotlint:allow(hot-growth): reference model, differential tests only
    deliveries_.push_back({pkt_id, deliver_at});
    return true;
  }

  LegacyScalarLink link_;
  std::priority_queue<Held, std::vector<Held>, std::greater<>> held_;
  std::vector<Delivery> deliveries_;
  std::uint64_t next_pkt_id_ = 1;
  std::uint64_t next_hold_seq_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_dropped_ = 0;
};

// The α-shift controller exactly as it stood before the WeightController
// interface extraction: cooldown/shift bookkeeping and the eligibility scan
// inline instead of inherited, and its own decision struct. The
// differential suite drives this and AlphaShiftController::control_step
// with the same score streams and requires identical decision sequences.
INBAND_SHARD_LOCAL(lb)
class LegacyAlphaShiftController {
 public:
  struct Decision {
    BackendId from = kNoBackend;
    double fraction = 0.0;
    double worst_score_ns = 0.0;
    double best_score_ns = 0.0;
  };

  explicit LegacyAlphaShiftController(AlphaShiftConfig config = {})
      : config_{config}, baseline_best_{config.guard_tau} {
    INBAND_ASSERT(config_.alpha > 0.0 && config_.alpha <= 1.0);
    INBAND_ASSERT(config_.rel_threshold >= 1.0);
    INBAND_ASSERT(config_.cooldown >= 0);
  }

  std::optional<Decision> evaluate(ServerLatencyTracker& tracker,
                                   SimTime now) {
    if (now < config_.warmup) return std::nullopt;
    if (last_shift_ != kNoTime && now - last_shift_ < config_.cooldown) {
      return std::nullopt;
    }

    tracker.scores_into(now, scores_scratch_);
    const auto& all = scores_scratch_;
    const BackendScore* worst = nullptr;
    const BackendScore* best = nullptr;
    std::size_t eligible = 0;
    for (const auto& s : all) {
      if (s.samples < config_.min_samples) continue;
      if (now - s.last_sample > config_.staleness) continue;
      ++eligible;
      if (worst == nullptr || s.score_ns > worst->score_ns) worst = &s;
      if (best == nullptr || s.score_ns < best->score_ns) best = &s;
    }
    if (eligible < 2 || worst == nullptr || best == nullptr ||
        worst->backend == best->backend) {
      return std::nullopt;
    }

    if (config_.global_guard > 0.0) {
      const bool inflated =
          baseline_best_.initialized() &&
          best->score_ns > config_.global_guard * baseline_best_.value();
      baseline_best_.record(now, best->score_ns);
      if (inflated) {
        ++guard_holds_;
        pending_from_ = kNoBackend;
        return std::nullopt;
      }
    }

    const double gap = worst->score_ns - best->score_ns;
    if (gap < static_cast<double>(config_.min_abs_gap) ||
        worst->score_ns < config_.rel_threshold * best->score_ns) {
      pending_from_ = kNoBackend;
      return std::nullopt;
    }

    if (config_.confirm > 0) {
      if (pending_from_ != worst->backend) {
        pending_from_ = worst->backend;
        pending_since_ = now;
        return std::nullopt;
      }
      if (now - pending_since_ < config_.confirm) return std::nullopt;
    }

    pending_from_ = kNoBackend;
    last_shift_ = now;
    ++shifts_;
    return Decision{worst->backend, config_.alpha, worst->score_ns,
                    best->score_ns};
  }

  std::uint64_t shifts() const { return shifts_; }
  std::uint64_t guard_holds() const { return guard_holds_; }
  SimTime last_shift_time() const { return last_shift_; }

 private:
  AlphaShiftConfig config_;
  DecayingEwma baseline_best_;
  std::vector<BackendScore> scores_scratch_;
  BackendId pending_from_ = kNoBackend;
  SimTime pending_since_ = kNoTime;
  SimTime last_shift_ = kNoTime;
  std::uint64_t shifts_ = 0;
  std::uint64_t guard_holds_ = 0;
};

}  // namespace inband
