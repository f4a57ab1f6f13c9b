// Per-server latency aggregation.
//
// Folds the per-flow T_LB samples into one latency score per backend. Two
// score modes: a time-decayed EWMA (fast, smooth) and a sliding-window p95
// (closer to the tail objective the paper targets). Freshness matters: a
// backend that the LB has shifted traffic away from stops producing samples,
// so scores carry their last-sample time and consumers can treat stale
// scores accordingly.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "lb/backend.h"
#include "telemetry/ewma.h"
#include "telemetry/sliding_window.h"
#include "util/shard.h"
#include "util/time.h"

namespace inband {

class AuditScope;
class StateDigest;

enum class LatencyScoreMode { kEwma, kWindowedP95 };

struct LatencyTrackerConfig {
  LatencyScoreMode mode = LatencyScoreMode::kEwma;
  SimTime ewma_tau = ms(2);      // decay constant of the per-server EWMA
  SimTime window = ms(50);       // sliding window for the p95 mode
};

struct BackendScore {
  BackendId backend = kNoBackend;
  double score_ns = 0.0;
  SimTime last_sample = kNoTime;
  std::uint64_t samples = 0;  // lifetime sample count
};

INBAND_SHARD_LOCAL(lb)
class ServerLatencyTracker {
 public:
  ServerLatencyTracker(std::size_t backend_count,
                       LatencyTrackerConfig config = {});

  void record(BackendId backend, SimTime now, SimTime t_lb);

  // Score for one backend; nullopt when it has no opinion — no samples yet,
  // or (p95 mode) every sample has aged out of the sliding window. The old
  // 0.0-on-empty-window convention made a long-quiet backend the cluster's
  // *best* score, defeating the controller's rel_threshold/global_guard
  // comparisons and attracting shifted traffic.
  std::optional<double> score(BackendId backend, SimTime now);

  // All backends that currently have a score (see score()).
  std::vector<BackendScore> scores(SimTime now);

  // Same, written into `out` (cleared first) so per-packet callers reuse its
  // capacity instead of allocating a fresh vector per evaluation.
  void scores_into(SimTime now, std::vector<BackendScore>& out);

  std::uint64_t samples(BackendId backend) const;
  SimTime last_sample_time(BackendId backend) const;
  std::size_t backend_count() const { return entries_.size(); }

  // Invariant audit: per-backend freshness timestamps lie in the past and
  // score bookkeeping is consistent with the sample counts.
  void audit_invariants(AuditScope& scope) const;

  // Folds per-backend aggregation state into a determinism digest.
  void digest_state(StateDigest& digest) const;

 private:
  struct Entry {
    DecayingEwma ewma;
    SimTime last_sample = kNoTime;
    std::uint64_t count = 0;

    explicit Entry(SimTime tau) : ewma{tau} {}
  };

  LatencyTrackerConfig config_;
  std::vector<Entry> entries_;
  // One sliding window per backend, built only in kWindowedP95 mode (each
  // holds nine histograms, ~134 KB); empty in kEwma mode.
  std::vector<SlidingWindowHistogram> windows_;
};

}  // namespace inband
