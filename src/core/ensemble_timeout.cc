#include "core/ensemble_timeout.h"

#include <algorithm>
#include <string>

#include "check/invariant_auditor.h"
#include "check/state_digest.h"
#include "util/assert.h"

namespace inband {

std::vector<SimTime> EnsembleConfig::default_timeouts() {
  // 64µs, 128µs, 256µs, 512µs, 1024µs, 2048µs, 4096µs (paper §3).
  std::vector<SimTime> out;
  for (SimTime d = us(64); d <= us(4096); d *= 2) out.push_back(d);
  return out;
}

EnsembleTimeout::EnsembleTimeout(EnsembleConfig config)
    : config_{std::move(config)} {
  INBAND_ASSERT(!config_.timeouts.empty());
  INBAND_ASSERT(config_.timeouts.size() <= kMaxLadder,
                "ladder longer than kMaxLadder");
  INBAND_ASSERT(config_.epoch > 0);
  SimTime prev = 0;
  for (SimTime d : config_.timeouts) {
    INBAND_ASSERT(d > prev, "timeouts must be strictly increasing");
    prev = d;
  }
  INBAND_ASSERT(config_.initial_choice < config_.timeouts.size());
}

std::size_t EnsembleTimeout::detect_cliff(
    std::span<const std::uint32_t> counts) {
  INBAND_ASSERT(!counts.empty());
  // m = argmaxᵢ (Nᵢ / Nᵢ₊₁), add-one smoothed; ties to the smallest i.
  std::size_t best = 0;
  double best_ratio = 0.0;
  for (std::size_t i = 0; i + 1 < counts.size(); ++i) {
    const double ratio = (static_cast<double>(counts[i]) + 1.0) /
                         (static_cast<double>(counts[i + 1]) + 1.0);
    if (ratio > best_ratio) {
      best_ratio = ratio;
      best = i;
    }
  }
  return best;
}

void EnsembleTimeout::roll_epoch(EnsembleState& state, SimTime now) const {
  const SimTime elapsed = now - state.epoch_start;
  // Counters older than the immediately preceding epoch are stale: the flow
  // sat idle for at least one full epoch since they were collected, and the
  // cliff they encode describes traffic that no longer exists. Adopting δ
  // from them let one pre-idle burst dictate the timeout a resumed flow
  // wakes up with; discard them and keep the previous choice instead.
  const bool stale = elapsed >= 2 * config_.epoch;
  const std::span<std::uint32_t> counts{state.samples.data(), state.k};
  bool any = false;
  for (auto n : counts) any = any || n > 0;
  if (any && !stale) {
    const std::size_t m = detect_cliff(counts);
    // Only adopt a cliff whose winning timeout actually produced samples;
    // an all-quiet flow keeps its previous choice (line 10's δₘ would be
    // meaningless).
    if (counts[m] > 0) {
      state.chosen = static_cast<std::uint32_t>(m);
    }
  }
  std::fill(counts.begin(), counts.end(), 0u);  // line 9: reset counters
  // Epochs are anchored to the flow's first packet; skip any fully idle
  // epochs so epoch_start stays within one epoch of `now`.
  state.epoch_start += (elapsed / config_.epoch) * config_.epoch;
}

SimTime EnsembleTimeout::on_packet(EnsembleState& state, SimTime now) const {
  const std::size_t k = config_.timeouts.size();
  if (state.k == 0) {
    // The flow's first packet starts every instance's first batch and the
    // first epoch; it produces no sample.
    state.last_pkt = now;
    std::fill_n(state.batch_start.begin(), k, now);
    state.epoch_start = now;
    state.chosen = config_.initial_choice;
    state.k = static_cast<std::uint32_t>(k);
    return kNoTime;
  }
  INBAND_DCHECK(now >= state.last_pkt, "packet timestamps must not regress");

  // Line 7: "current packet is the first of a new epoch".
  if (now - state.epoch_start >= config_.epoch) {
    roll_epoch(state, now);
  }

  // Lines 1–6 of every FIXEDTIMEOUT instance: rung i opens a new batch when
  // the gap exceeds δᵢ. The ladder is increasing, so the firing rungs are a
  // prefix and the walk stops at the first quiet one.
  const SimTime gap = now - state.last_pkt;
  state.last_pkt = now;
  SimTime chosen_sample = kNoTime;
  for (std::size_t i = 0; i < k && gap > config_.timeouts[i]; ++i) {
    ++state.samples[i];
    if (i == state.chosen) {
      chosen_sample = now - state.batch_start[i];  // line 12: T_LB,e
    }
    state.batch_start[i] = now;
  }
  return chosen_sample;
}

SimTime EnsembleTimeout::current_delta(const EnsembleState& state) const {
  if (state.k == 0) return kNoTime;
  return config_.timeouts[state.chosen];
}

void EnsembleTimeout::audit_state(const EnsembleState& state, std::size_t k,
                                  AuditScope& scope) {
  if (state.k == 0) {
    scope.check(state.epoch_start == kNoTime, "uninitialized-state-blank");
    return;
  }
  const SimTime now = scope.now();
  const bool layout_ok =
      scope.check(state.k == k && k <= kMaxLadder, "ladder-layout",
                  "per-flow ladder size disagrees with k") &&
      scope.check(state.chosen < k, "chosen-in-range",
                  "chosen=" + std::to_string(state.chosen));
  scope.check(state.epoch_start != kNoTime && state.epoch_start <= now,
              "epoch-start-in-past");
  scope.check(state.last_pkt != kNoTime && state.last_pkt <= now,
              "last-packet-in-past");
  if (!layout_ok) return;
  for (std::size_t i = 0; i < k; ++i) {
    scope.check(state.batch_start[i] <= state.last_pkt, "batch-timer-ordered",
                "batch start after last packet (timeout index " +
                    std::to_string(i) + ")");
  }
}

void EnsembleTimeout::digest_state(const EnsembleState& state,
                                   StateDigest& digest) {
  // One (batch start, last packet) pair per rung, as if each FIXEDTIMEOUT
  // instance kept its own last-packet time: pinned digests fold this order.
  digest.mix_bool(state.k != 0);
  digest.mix_i64(state.epoch_start);
  digest.mix_u32(state.chosen);
  digest.mix(state.k);
  for (std::size_t i = 0; i < state.k; ++i) {
    digest.mix_i64(state.batch_start[i]);
    digest.mix_i64(state.last_pkt);
  }
  for (std::size_t i = 0; i < state.k; ++i) digest.mix_u32(state.samples[i]);
}

}  // namespace inband
