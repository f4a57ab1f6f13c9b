// WeightController — the pluggable control-law interface of the in-band
// feedback loop, and the decision skeleton every law is built on.
//
// The paper's α-shift rule (move α of total traffic off the worst server) is
// one point in a large design space of weight-update laws. Every controller
// in the zoo consumes the same inputs — the per-server in-band latency
// scores aggregated by ServerLatencyTracker and the current per-backend
// weight (table-share) vector — and emits a WeightDecision that the policy
// applies through the existing Maglev table-update path. Two decision
// expressions exist so the paper's law stays bit-identical:
//
//  * shift:   "move `fraction` of total traffic off backend `from`" — the
//    α-shift primitive, applied in place via MaglevTable::shift_slots;
//  * weights: a full normalized target-share vector, applied via a weighted
//    Maglev rebuild (the mechanism benchmarked in ablation_table_update).
//
// The steps every law shares live here, once:
//
//  * eligibility (scan_scores): a backend's score counts when it has at
//    least `min_samples` samples and its newest is at most `staleness` old.
//    The scan returns the worst and best eligible scores (the first one
//    wins a tie), the eligible count and whether every backend is eligible;
//  * the decision emit (emit_decision): the only place the update counter
//    moves, so shifts() counts exactly the decisions returned;
//  * for the weight-vector laws, EpochWeightLaw: the warm-up and epoch
//    gate, the complete-fresh-view requirement, the per-backend floor
//    min(0.02, 1/(2n)) and the L1 deadband. Such a law implements only
//    its weight formula (weigh) and the digest of its own state.
//
// Controllers must be deterministic: the decision stream is a pure function
// of (sample stream, weight inputs, config). Nothing here may read wall
// clocks, iterate unordered containers, or draw from unseeded entropy —
// detlint/hotlint enforce this like everywhere else in the tree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/server_latency_tracker.h"
#include "util/hotpath.h"
#include "util/shard.h"
#include "util/time.h"

namespace inband {

class StateDigest;

// Registered control laws. kShortestQueueStale is kShortestQueue acting on a
// periodically refreshed (i.e. stale) score snapshot — the classic
// out-of-band-polling baseline.
enum class ControllerKind {
  kAlphaShift,
  kKnapsack,
  kGradientDescent,
  kShortestQueue,
  kShortestQueueStale,
};

const char* controller_kind_name(ControllerKind kind);
std::optional<ControllerKind> controller_kind_from_name(std::string_view name);

// One control decision. `weights == nullptr` selects the shift expression;
// otherwise `weights` points at a controller-owned normalized target-share
// vector (indexed by backend id) that stays valid until the controller's
// next control_step() call.
struct WeightDecision {
  BackendId from = kNoBackend;  // shift victim / diagnostically-worst backend
  double fraction = 0.0;        // shift expression only
  const std::vector<double>* weights = nullptr;
  double worst_score_ns = 0.0;
  double best_score_ns = 0.0;

  bool is_weight_vector() const { return weights != nullptr; }
};

// One eligibility scan over a score vector (see scan_scores). `worst` and
// `best` index into the scanned vector and are meaningful only when
// `eligible > 0`.
struct ScoreScan {
  std::size_t worst = 0;  // highest eligible score; the first one wins ties
  std::size_t best = 0;   // lowest eligible score; the first one wins ties
  std::size_t eligible = 0;
  bool complete = false;  // every backend of the tracker is eligible
};

INBAND_SHARD_LOCAL(lb)
class WeightController {
 public:
  virtual ~WeightController() = default;

  virtual const char* name() const = 0;

  // Called once per in-band latency sample (not per packet). `weights` is
  // the policy's live per-backend share vector. Returns the decision to
  // execute, or nullopt. Every decision is built by emit_decision(), so
  // cooldown/epoch bookkeeping and the shifts() counter stay consistent
  // across laws.
  INBAND_HOT virtual std::optional<WeightDecision> control_step(
      ServerLatencyTracker& tracker, const std::vector<double>& weights,
      SimTime now) = 0;

  // Executed decisions. The α-shift law calls these "shifts"; the name is
  // kept for every law so existing benches/tests read unchanged.
  std::uint64_t shifts() const { return updates_; }
  SimTime last_shift_time() const { return last_update_; }

  // Folds controller-internal state into a determinism digest: the update
  // count and time here, each law's own state after it. Used by the
  // conformance suite to compare two same-seed instances; deliberately NOT
  // folded into InbandLbPolicy::digest_state so the rig digest of the
  // default α-shift configuration is unchanged by the zoo refactor.
  virtual void digest_state(StateDigest& digest) const;

 protected:
  // Refreshes scores() from the tracker and applies the eligibility rule.
  ScoreScan scan_scores(ServerLatencyTracker& tracker, SimTime now,
                        std::uint64_t min_samples, SimTime staleness);
  // The tracker's scores as of the last scan_scores() call.
  const std::vector<BackendScore>& scores() const { return scores_; }

  // Counts one executed decision at `now` and returns it. `weights` null
  // selects the shift expression (`fraction` off `worst`'s backend);
  // otherwise it is the law-owned target-share vector.
  WeightDecision emit_decision(SimTime now, const BackendScore& worst,
                               const BackendScore& best, double fraction,
                               const std::vector<double>* weights);

 private:
  // Scratch reuse: the α law scans on every sample, so a fresh vector here
  // would be the dataplane's only steady-state allocation.
  std::vector<BackendScore> scores_;
  std::uint64_t updates_ = 0;
  SimTime last_update_ = kNoTime;
};

// The knobs every epoch-gated weight-vector law shares. Each law's config
// extends this and keeps its own defaults.
struct EpochLawConfig {
  SimTime epoch = ms(2);          // decision interval
  std::uint64_t min_samples = 3;  // per-backend warm-up before a decision
  SimTime staleness = ms(20);     // a score older than this blocks one
  SimTime warmup = 0;             // no decisions before this absolute time
  // A decision moving less than this much total weight (L1) is discarded —
  // the oscillation deadband.
  double deadband = 0.01;
};

// The skeleton of the weight-vector laws. Once per `epoch` (after `warmup`)
// it takes a score view in which every backend is eligible, asks the law
// for a target-share vector above the floor, and emits it unless it lies
// within the deadband of the live weights.
INBAND_SHARD_LOCAL(lb)
class EpochWeightLaw : public WeightController {
 public:
  INBAND_HOT std::optional<WeightDecision> control_step(
      ServerLatencyTracker& tracker, const std::vector<double>& weights,
      SimTime now) final;

  // Update count, epoch clock, the law's state (digest_law), then the last
  // computed weight vector.
  void digest_state(StateDigest& digest) const final;

 protected:
  explicit EpochWeightLaw(const EpochLawConfig& config);

  // The view this epoch's weights are computed from, with its scan; nullptr
  // holds. By default the tracker's fresh scores, when every backend is
  // eligible. Called only with n >= 2 backends and n live weights.
  virtual const std::vector<BackendScore>* score_view(
      ServerLatencyTracker& tracker, SimTime now, ScoreScan& scan);

  // The law's weight formula: writes the n-entry target vector to `next`
  // from a complete view (one score per backend, in backend order), the
  // live `weights` and the per-backend `floor`.
  virtual void weigh(const std::vector<BackendScore>& view,
                     const std::vector<double>& weights, double floor,
                     std::vector<double>& next) = 0;

  virtual void digest_law(StateDigest& digest) const = 0;

 private:
  EpochLawConfig config_;
  std::vector<double> next_;  // the decision's weight vector (owned)
  SimTime last_eval_ = kNoTime;
};

// --- shared weight-vector helpers (used by the zoo laws and their tests) ---

// Rescales `w` onto the probability simplex with a per-entry floor. The
// input's magnitude is irrelevant (it is first normalized to sum 1, negative
// entries clipped): each entry ends at `floor + surplus_i`, surpluses
// proportional to the positive parts of (share_i - floor) and summing to
// 1 - n*floor. Degenerate inputs (zero, or all-at-or-below-floor) collapse
// to the uniform vector. `floor` is internally clamped to 1/(2n) so n*floor
// can never exceed the total mass.
void floor_and_normalize(std::vector<double>& w, double floor);

// Euclidean projection of `w` onto {v : v_i >= 0, sum v_i = mass} (sort-based
// O(n log n) algorithm; deterministic). `scratch` is caller-owned so the
// epoch-rate caller reuses capacity.
void project_to_simplex(std::vector<double>& w, double mass,
                        std::vector<double>& scratch);

// L1 distance between two weight vectors (total variation x2); the
// oscillation deadband metric of EpochWeightLaw.
double weight_l1_distance(const std::vector<double>& a,
                          const std::vector<double>& b);

}  // namespace inband
