// Algorithm 2 — ENSEMBLETIMEOUT with sample-cliff detection (HotNets '22 §3).
//
// Runs k FIXEDTIMEOUT instances with exponentially spaced timeouts
// δ₁ < δ₂ < … < δₖ over every packet, counting how many samples each timeout
// produced during an epoch E. At each epoch boundary it finds the *sample
// cliff* — the largest drop in sample count between adjacent timeouts,
// m = argmaxᵢ (Nᵢ / Nᵢ₊₁) — and emits samples from δₘ during the next epoch.
//
// Rationale (paper §3): timeouts below the ideal δ_opt over-segment batches
// and produce too many (low) samples; timeouts above it merge batches and
// produce too few (high) samples; the count falls off sharply right past
// δ_opt, so the cliff position tracks δ_opt as the true RTT changes.
//
// Implementation notes, where the pseudocode is silent:
//  * counts are smoothed as (Nᵢ+1)/(Nᵢ₊₁+1) so empty buckets do not divide
//    by zero; ties resolve to the smallest i;
//  * the epoch is per-flow and starts at the flow's first packet; boundary
//    detection happens on the first packet whose arrival crosses the epoch
//    end ("current packet is the first of a new epoch");
//  * if an epoch produced no samples at all, the previous δ is kept;
//  * the initial δ (before the first cliff) is configurable; the default is
//    the smallest rung.
//
// The k instances run over the same packets, and every FIXEDTIMEOUT sets
// its time_last_pkt to the arrival time on every packet, so the k copies
// are always equal: the per-flow state keeps one. Because the ladder is
// strictly increasing, the rungs that open a batch on a packet are a
// prefix — exactly those with δᵢ < gap — so on_packet stops at the first
// rung that does not fire.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/shard.h"
#include "util/time.h"

namespace inband {

class AuditScope;
class StateDigest;

// Longest ladder the inline per-flow state holds (the paper's has 7 rungs).
inline constexpr std::size_t kMaxLadder = 8;

struct EnsembleConfig {
  // δ₁ … δₖ, strictly increasing, at most kMaxLadder rungs. Paper default:
  // 64µs, 128µs, …, 4ms.
  std::vector<SimTime> timeouts = default_timeouts();
  // Epoch length E. Paper default: 64 ms.
  SimTime epoch = ms(64);
  // Index into `timeouts` used before the first cliff detection. Default 0
  // (the smallest δ): a sensitive start produces samples from a flow's very
  // first batches — vital for short-lived, churned connections whose
  // lifetime is shorter than one epoch — and the cliff corrects the choice
  // upward at the first boundary.
  std::uint32_t initial_choice = 0;

  static std::vector<SimTime> default_timeouts();
};

// Per-flow state, inline and trivially copyable: the time of the flow's
// last packet (shared by all k FIXEDTIMEOUT instances), each instance's
// batch start, the per-epoch sample counters, and the epoch bookkeeping.
// 120 bytes, within reason for an XDP per-flow map entry.
struct EnsembleState {
  SimTime last_pkt = kNoTime;                       // f.time_last_pkt
  std::array<SimTime, kMaxLadder> batch_start{};    // rung i's time_last_batch
  std::array<std::uint32_t, kMaxLadder> samples{};  // Nᵢ for this epoch
  SimTime epoch_start = kNoTime;
  std::uint32_t chosen = 0;  // index of δₑ for the current epoch
  std::uint32_t k = 0;       // ladder size; 0 until the flow's first packet
};

INBAND_SHARD_LOCAL(lb)
class EnsembleTimeout {
 public:
  explicit EnsembleTimeout(EnsembleConfig config = {});

  // Processes one packet arrival; returns a T_LB sample produced by the
  // currently chosen timeout, or kNoTime.
  SimTime on_packet(EnsembleState& state, SimTime now) const;

  // δ chosen for the flow's current epoch (kNoTime before the first packet).
  SimTime current_delta(const EnsembleState& state) const;

  const EnsembleConfig& config() const { return config_; }
  std::size_t k() const { return config_.timeouts.size(); }

  // Exposed for tests: the cliff rule applied to raw counts.
  static std::size_t detect_cliff(std::span<const std::uint32_t> counts);

  // Invariant audit for one flow's state against ladder size k: the ladder
  // size, the chosen index, epoch bookkeeping, and each FIXEDTIMEOUT
  // instance's batch-timer ordering (batch start <= last packet <= now).
  static void audit_state(const EnsembleState& state, std::size_t k,
                          AuditScope& scope);

  // Folds one flow's estimator state into a determinism digest.
  static void digest_state(const EnsembleState& state, StateDigest& digest);

 private:
  void roll_epoch(EnsembleState& state, SimTime now) const;

  EnsembleConfig config_;
};

}  // namespace inband
