// The paper's §3 control strategy: "redistribute a fixed fraction α of total
// traffic from the server with the highest latency equally over all other
// servers", potentially on every new latency sample.
//
// The raw rule as stated would also fire when all servers are equally fast
// (there is always *some* maximum), so the controller adds two stabilizers,
// both defaulted to mild values and both ablatable:
//  * a relative trigger — shift only when the worst score exceeds the best
//    by a configurable factor (1.0 reproduces the unconditional paper rule);
//  * a cooldown — a minimum interval between shifts, preventing one burst of
//    samples from draining a server in a single RTT.
// Scores older than `staleness` are ignored: a drained backend stops
// producing samples, and acting on its ghost would oscillate.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/server_latency_tracker.h"
#include "core/weight_controller.h"
#include "telemetry/ewma.h"
#include "util/shard.h"
#include "util/time.h"

namespace inband {

struct AlphaShiftConfig {
  double alpha = 0.10;          // fraction of total traffic per shift (§3)
  double rel_threshold = 2.0;   // worst/best trigger ratio; 1.0 == paper rule
  SimTime min_abs_gap = us(100);  // worst-best must exceed this, too
  SimTime cooldown = us(500);   // min time between shifts
  SimTime staleness = ms(20);   // ignore scores older than this
  std::uint64_t min_samples = 3;  // per-backend warm-up before acting
  // No shifts before this absolute time: connection-setup transients during
  // cold start otherwise sit in windowed scores and trigger spurious drains.
  SimTime warmup = 0;

  // Global-inflation guard (§5(3)): hold fire when even the *best* eligible
  // score exceeds `global_guard` times its own trailing baseline — if every
  // server got slower at once, the cause is shared (a common dependency, a
  // network event) and no routing decision can dodge it; draining whoever
  // happened to inflate first only destroys capacity. The baseline is a
  // decaying EWMA with time constant `guard_tau`, so a *permanent* global
  // level shift is eventually absorbed and control re-arms. 0 disables.
  double global_guard = 0.0;
  SimTime guard_tau = ms(50);

  // Confirmation delay: a shift candidate (same worst backend, thresholds
  // met) must persist this long before executing. Defeats transition races —
  // under an abrupt *shared* fault, whichever server's samples arrive first
  // looks asymmetrically slow for a millisecond or two until the others
  // catch up; confirmation lets the gap evaporate before anyone is drained.
  // Costs the same delay in reaction time to genuine faults. 0 disables
  // (the paper's act-per-sample behaviour).
  SimTime confirm = 0;
};

INBAND_SHARD_LOCAL(lb)
class AlphaShiftController final : public WeightController {
 public:
  explicit AlphaShiftController(AlphaShiftConfig config = {});

  const char* name() const override { return "alpha-shift"; }

  // Evaluates the rule against the tracker's current scores and returns the
  // shift to execute (always the shift expression), or nullopt. A returned
  // shift starts the cooldown. The current weight vector is ignored — the
  // α rule only looks at scores.
  INBAND_HOT std::optional<WeightDecision> control_step(
      ServerLatencyTracker& tracker, const std::vector<double>& weights,
      SimTime now) override;

  std::uint64_t guard_holds() const { return guard_holds_; }
  const AlphaShiftConfig& config() const { return config_; }

  void digest_state(StateDigest& digest) const override;

 private:
  AlphaShiftConfig config_;
  DecayingEwma baseline_best_;
  BackendId pending_from_ = kNoBackend;
  SimTime pending_since_ = kNoTime;
  std::uint64_t guard_holds_ = 0;
};

}  // namespace inband
