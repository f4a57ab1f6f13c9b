#include "core/inband_lb_policy.h"

#include <algorithm>
#include <string>

#include "check/invariant_auditor.h"
#include "check/state_digest.h"
#include "util/assert.h"
#include "util/logging.h"

namespace inband {

InbandLbPolicy::InbandLbPolicy(const BackendPool& pool,
                               InbandPolicyConfig config)
    : config_{std::move(config)},
      pool_{pool},
      table_{config_.maglev_table_size},
      estimator_{config_.ensemble},
      flows_{config_.flow_table},
      tracker_{pool.size(), config_.tracker},
      controller_{make_controller(config_)} {
  INBAND_ASSERT(!pool_.empty());
  rebuild_from_pool();
}

void InbandLbPolicy::rebuild_from_pool() {
  // Weight-fair shares of the healthy pool: the restore drift's targets.
  double total = 0.0;
  for (const auto& b : pool_) total += b.healthy ? b.weight : 0;
  fair_shares_.assign(pool_.size(), 0.0);
  for (const auto& b : pool_) {
    fair_shares_[b.id] = b.healthy && total > 0 ? b.weight / total : 0.0;
  }
  target_shares_ = fair_shares_;
  table_.build(pool_);
  refresh_live_shares();
}

std::size_t InbandLbPolicy::rebuild_from_targets() {
  // Rebuild with integer weights proportional to the live targets.
  BackendPool weighted = pool_;
  for (auto& b : weighted) {
    b.weight = static_cast<std::uint32_t>(
        target_shares_[b.id] * 10'000.0 + 0.5);
  }
  bool any = false;
  for (const auto& b : weighted) any = any || (b.healthy && b.weight > 0);
  if (!any) return 0;
  MaglevTable rebuilt{table_.table_size()};
  rebuilt.build(weighted);
  const std::size_t changed = table_.diff(rebuilt);
  table_ = rebuilt;
  slots_disturbed_ += changed;
  return changed;
}

std::size_t InbandLbPolicy::apply_decision(const WeightDecision& decision) {
  if (decision.is_weight_vector()) {
    // A full weight vector always applies via weighted rebuild; health masks
    // the targets so a dead backend never wins slots back through a stale
    // controller opinion.
    INBAND_ASSERT(decision.weights->size() == pool_.size());
    for (const auto& b : pool_) {
      target_shares_[b.id] = b.healthy ? (*decision.weights)[b.id] : 0.0;
    }
    return rebuild_from_targets();
  }
  switch (config_.table_update) {
    case TableUpdateMode::kShiftSlots: {
      const std::size_t moved =
          table_.shift_slots(decision.from, decision.fraction);
      slots_disturbed_ += moved;
      return moved;
    }
    case TableUpdateMode::kWeightRebuild: {
      // Move `fraction` of total share off the victim, equally to others.
      double taken = std::min(decision.fraction, target_shares_[decision.from]);
      if (taken <= 0.0) return 0;
      std::size_t receivers = 0;
      for (const auto& b : pool_) {
        if (b.healthy && b.id != decision.from) ++receivers;
      }
      if (receivers == 0) return 0;
      target_shares_[decision.from] -= taken;
      for (const auto& b : pool_) {
        if (b.healthy && b.id != decision.from) {
          target_shares_[b.id] += taken / static_cast<double>(receivers);
        }
      }
      return rebuild_from_targets();
    }
  }
  return 0;
}

void InbandLbPolicy::record_sample(const Packet& pkt, BackendId backend,
                                   SimTime now, SimTime sample) {
  SimTime scored = sample;
  if (config_.normalize_client_floor) {
    // hotlint:allow(hot-growth): one floor entry per distinct client address
    auto [it, inserted] = client_floor_.emplace(pkt.flow.src.addr, sample);
    if (!inserted && sample < it->second) it->second = sample;
    scored = sample - it->second;
  }
  tracker_.record(backend, now, scored);
}

SimTime InbandLbPolicy::handshake_sample(FlowState& state, const Packet& pkt,
                                         SimTime now) {
  if (pkt.has(tcpflag::kSyn) && !pkt.has(tcpflag::kAck)) {
    if (state.syn_at == kNoTime) {
      state.syn_at = now;
    } else {
      // SYN retransmission: the eventual ACK gap would measure the retry
      // timeout, not the path — drop the handshake instead.
      ++retransmitted_syns_;
      state.syn_at = kNoTime;
    }
    return kNoTime;
  }
  if (state.syn_at == kNoTime) return kNoTime;
  if (pkt.has(tcpflag::kRst)) {
    state.syn_at = kNoTime;
    return kNoTime;
  }
  if (!pkt.has(tcpflag::kAck) || pkt.has(tcpflag::kSyn)) return kNoTime;
  // The first ACK after the SYN completes the handshake; later ACKs are
  // data-path traffic.
  const SimTime sample = now - state.syn_at;
  state.syn_at = kNoTime;
  return sample;
}

BackendId InbandLbPolicy::pick(const FlowKey& flow, SimTime now) {
  (void)now;
  return table_.lookup(flow);
}

void InbandLbPolicy::on_packet(const Packet& pkt, BackendId backend,
                               SimTime now, bool new_flow) {
  (void)new_flow;
  flows_.maybe_sweep(now);
  FlowState& state = flows_.get_or_create(pkt.flow, now);

  // Fast bootstrap: a new connection's handshake yields a sample one RTT in.
  if (config_.use_handshake_bootstrap) {
    if (const SimTime hs = handshake_sample(state, pkt, now); hs != kNoTime) {
      ++handshake_samples_;
      record_sample(pkt, backend, now, hs);
    }
  }

  const SimTime t_lb = estimator_.on_packet(state.ensemble, now);
  if (t_lb == kNoTime) {
    maybe_restore(now);
    return;
  }
  ++samples_total_;
  record_sample(pkt, backend, now, t_lb);

  if (auto decision = controller_->control_step(tracker_, live_shares_, now)) {
    const std::size_t moved = apply_decision(*decision);
    if (moved > 0) {
      // hotlint:allow(hot-growth): one record per table update, rate-limited
      shifts_.push_back({now, decision->from, moved, decision->worst_score_ns,
                         decision->best_score_ns});
      refresh_live_shares();
      LOG_DEBUG() << '[' << format_duration(now) << "] " << controller_->name()
                  << ": moved " << moved << " slots off backend "
                  << decision->from << " (worst "
                  << decision->worst_score_ns / 1e3 << "us vs best "
                  << decision->best_score_ns / 1e3 << "us)";
    }
  }
  maybe_restore(now);
}

void InbandLbPolicy::on_pool_change(const BackendPool& pool) {
  INBAND_ASSERT(pool.size() == pool_.size(),
                "pool membership is fixed; only health/weights may change");
  pool_ = pool;
  rebuild_from_pool();
}

void InbandLbPolicy::refresh_live_shares() {
  INBAND_COLD_OK(
      "runs once per table mutation (build, applied decision, restore drift), "
      "never on the per-packet path");
  live_shares_ = table_.shares();
}

void InbandLbPolicy::on_flow_closed(const FlowKey& flow, BackendId backend,
                                    SimTime now) {
  (void)backend;
  (void)now;
  flows_.erase(flow);
}

SimTime InbandLbPolicy::flow_delta(const FlowKey& flow) const {
  const FlowState* state = flows_.find(flow);
  return state == nullptr ? kNoTime : estimator_.current_delta(state->ensemble);
}

void InbandLbPolicy::maybe_restore(SimTime now) {
  if (config_.restore_interval <= 0) return;
  if (now - last_restore_ < config_.restore_interval) return;
  const SimTime last_shift = controller_->last_shift_time();
  if (last_shift != kNoTime &&
      now - last_shift < config_.restore_interval) {
    return;  // controller is active; do not fight it
  }
  last_restore_ = now;

  // Find the backend furthest below its fair share and the one furthest
  // above; drift slots from the latter to the former.
  BackendId needy = kNoBackend;
  BackendId donor = kNoBackend;
  double worst_deficit = 0.0;
  double worst_surplus = 0.0;
  for (const auto& b : pool_) {
    if (!b.healthy) continue;
    const double deficit = fair_shares_[b.id] - live_shares_[b.id];
    if (deficit > worst_deficit) {
      worst_deficit = deficit;
      needy = b.id;
    }
    if (-deficit > worst_surplus) {
      worst_surplus = -deficit;
      donor = b.id;
    }
  }
  if (needy == kNoBackend || donor == kNoBackend || needy == donor) return;
  const double step = std::min(config_.restore_step, worst_deficit);
  const auto count = static_cast<std::size_t>(
      step * static_cast<double>(table_.table_size()));
  if (count > 0) {
    table_.move_slots(donor, needy, count);
    refresh_live_shares();
  }
}

void InbandLbPolicy::audit_invariants(AuditScope& scope) const {
  table_.audit_invariants(scope, &pool_);
  flows_.audit_invariants(scope, estimator_.k());
  tracker_.audit_invariants(scope);
  scope.check(tracker_.backend_count() == pool_.size(),
              "tracker-covers-pool");
  scope.check(fair_shares_.size() == pool_.size() &&
                  target_shares_.size() == pool_.size() &&
                  live_shares_.size() == pool_.size(),
              "share-bookkeeping-sized");
  double live_total = 0.0;
  for (const double s : live_shares_) live_total += s;
  scope.check(live_total > 0.999 && live_total < 1.001,
              "live-shares-normalized");
  const SimTime now = scope.now();
  SimTime prev = kNoTime;
  for (const auto& s : shifts_) {
    scope.check(s.t <= now, "shift-in-past");
    scope.check(prev == kNoTime || s.t >= prev, "shift-history-ordered");
    scope.check(s.from < pool_.size(), "shift-victim-in-pool",
                "shift away from unknown backend " + std::to_string(s.from));
    prev = s.t;
  }
  scope.check(last_restore_ <= now, "restore-clock-sane");
}

void InbandLbPolicy::digest_state(StateDigest& digest) const {
  table_.digest_state(digest);
  flows_.digest_state(digest);
  tracker_.digest_state(digest);
  digest.mix(samples_total_);
  digest.mix(handshake_samples_);
  digest.mix(slots_disturbed_);
  digest.mix_i64(last_restore_);
  digest.mix(shifts_.size());
  for (const auto& s : shifts_) {
    digest.mix_i64(s.t);
    digest.mix_u32(s.from);
    digest.mix(s.slots_moved);
    digest.mix_double(s.worst_score_ns);
    digest.mix_double(s.best_score_ns);
  }
  UnorderedDigest floors;
  // detlint:allow(unordered-iter): per-entry digests fold through the commutative UnorderedDigest combiner
  for (const auto& [addr, floor] : client_floor_) {
    StateDigest e;
    e.mix_u32(addr);
    e.mix_i64(floor);
    floors.add(e);
  }
  floors.mix_into(digest);
}

}  // namespace inband
