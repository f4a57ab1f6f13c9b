// The latency-aware routing policy — the paper's full in-band feedback loop.
//
// Composition, per packet at the LB (requests direction only):
//
//   packet ──► FlowStateTable ──► EnsembleTimeout (Alg. 2 over Alg. 1)
//                                     │ T_LB sample
//                                     ▼
//                         ServerLatencyTracker (per-backend score)
//                                     │
//                                     ▼
//                  WeightController (pluggable; §3 α-shift by default,
//                  see core/controller_zoo.h for the full zoo)
//                                     │ WeightDecision
//                                     ▼
//         MaglevTable::shift_slots or weighted rebuild (hash-table update)
//
// New flows route through the (continuously adapted) Maglev table; existing
// flows are pinned by the LB's conntrack, preserving per-connection
// consistency across shifts exactly as in the Cilium/XDP prototype.
//
// An optional restore mechanism (off by default, an explicit extension over
// the paper) slowly drifts the table back toward its original shares when
// the controller has been quiet, so a recovered server can earn traffic
// again; the paper leaves this open (§5(4)).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/controller_zoo.h"
#include "core/ensemble_timeout.h"
#include "core/flow_state_table.h"
#include "core/server_latency_tracker.h"
#include "lb/maglev.h"
#include "lb/policy.h"
#include "util/hotpath.h"
#include "util/open_hash_map.h"
#include "util/shard.h"

namespace inband {

// How a shift-expression WeightDecision is applied to the Maglev table.
//  * kShiftSlots  — the paper's mechanism: reassign α·M slots away from the
//    victim in place. O(moved) work, minimal disruption.
//  * kWeightRebuild — adjust per-backend target shares and rebuild the whole
//    table with weighted Maglev. The "textbook" alternative; costs a full
//    table build per update and moves unrelated slots. Benchmarked in
//    bench/ablation_table_update.
// Decisions that carry a full weight vector (knapsack, gradient, shortest
// queue) always apply via the weighted-rebuild mechanism — a weight vector
// has no single victim to shift away from.
enum class TableUpdateMode { kShiftSlots, kWeightRebuild };

// The control law and its config come from the ControllerZooConfig base
// (`controller_kind`, `controller`, `knapsack`, ...), handed to
// make_controller as is.
struct InbandPolicyConfig : ControllerZooConfig {
  EnsembleConfig ensemble;
  LatencyTrackerConfig tracker;
  FlowStateTableConfig flow_table;
  std::uint64_t maglev_table_size = 65537;

  // Optional restore: every `restore_interval` without a shift, move
  // `restore_step` of the table from the largest owner back toward the
  // backend furthest below its weight-fair share. 0 disables (default).
  SimTime restore_interval = 0;
  double restore_step = 0.02;

  // §5(1) extension: score each sample as its inflation above the *client's*
  // observed floor (minimum T_LB ever seen from that source address) instead
  // of the absolute value. The floor captures the client↔LB distance — a
  // property of the client, not of any server — so far clients stop biasing
  // server scores, while a genuine server fault still shows as inflation
  // above the floor. Keyed per client rather than per flow deliberately:
  // per-flow floors re-baseline at every connection churn and would hide a
  // persistent fault from all post-fault connections. Off by default (the
  // paper's controller uses absolute latencies).
  bool normalize_client_floor = false;

  // §3's "simple instantiation": also feed SYN→handshake-ACK gaps into the
  // per-server scores. Both packets travel client→server, so the LB sees
  // them even under DSR, and the gap is one full loop (LB→server,
  // SYN+ACK to the client, client→LB). Gives every new connection a sample
  // after one round trip, before any request batch exists — a fast
  // bootstrap for freshly routed flows. The SYN time lives in the flow's
  // FlowState, so the flow table's sweep and capacity bound it. Off by
  // default (matches the paper's evaluated design).
  bool use_handshake_bootstrap = false;

  TableUpdateMode table_update = TableUpdateMode::kShiftSlots;
};

// One executed table update, for reaction-time analysis (§4's
// "updates incorporate the latency inflation in milliseconds").
struct ShiftEvent {
  SimTime t;
  BackendId from;
  std::size_t slots_moved;
  double worst_score_ns;
  double best_score_ns;
};

INBAND_SHARD_LOCAL(lb)
class InbandLbPolicy final : public RoutingPolicy {
 public:
  InbandLbPolicy(const BackendPool& pool, InbandPolicyConfig config = {});

  std::string name() const override { return "inband-latency-aware"; }
  INBAND_HOT BackendId pick(const FlowKey& flow, SimTime now) override;
  INBAND_HOT void on_packet(const Packet& pkt, BackendId backend, SimTime now,
                            bool new_flow) override;
  void on_flow_closed(const FlowKey& flow, BackendId backend,
                      SimTime now) override;
  void on_pool_change(const BackendPool& pool) override;
  // Audits the Maglev table against the pool, every per-flow estimator
  // state, and the share bookkeeping the α-shift controller relies on.
  void audit_invariants(AuditScope& scope) const override;
  void digest_state(StateDigest& digest) const override;

  // --- introspection ---
  const MaglevTable& table() const { return table_; }
  ServerLatencyTracker& tracker() { return tracker_; }
  const WeightController& controller() const { return *controller_; }
  const EnsembleTimeout& estimator() const { return estimator_; }
  const std::vector<ShiftEvent>& shift_history() const { return shifts_; }
  std::uint64_t samples_total() const { return samples_total_; }
  std::uint64_t handshake_samples() const { return handshake_samples_; }
  // Repeated SYNs that abandoned a pending handshake sample.
  std::uint64_t retransmitted_syns() const { return retransmitted_syns_; }
  // Total slots whose owner changed across all table updates.
  std::uint64_t slots_disturbed() const { return slots_disturbed_; }
  std::size_t tracked_flows() const { return flows_.size(); }

  // Per-flow estimator introspection for tests/benches: the flow's current
  // timeout, or kNoTime for an untracked flow. A pure lookup — the flow
  // table and its recency order are left as they are.
  SimTime flow_delta(const FlowKey& flow) const;

 private:
  void record_sample(const Packet& pkt, BackendId backend, SimTime now,
                     SimTime sample);
  // Advances the flow's handshake tracking for one client→server packet;
  // returns the SYN→handshake-ACK gap when `pkt` completes the handshake.
  SimTime handshake_sample(FlowState& state, const Packet& pkt, SimTime now);
  // Applies the controller's decision via the configured mechanism; returns
  // the number of slots whose owner changed.
  std::size_t apply_decision(const WeightDecision& decision);
  // Rebuilds the Maglev table from target_shares_ and returns the number of
  // slots whose owner changed (the kWeightRebuild / weight-vector mechanism).
  std::size_t rebuild_from_targets();
  // Resets the fair and target shares to the pool's weights and rebuilds
  // the table from the pool (construction and pool changes).
  void rebuild_from_pool();
  // Recomputes live_shares_ from the table. Runs only after a (rate-limited)
  // table mutation, never per packet.
  void refresh_live_shares();
  void maybe_restore(SimTime now);

  InbandPolicyConfig config_;
  BackendPool pool_;
  MaglevTable table_;
  std::vector<double> fair_shares_;
  std::vector<double> target_shares_;  // live targets (weighted rebuilds)
  // Current per-backend table shares, refreshed after each table mutation —
  // the `weights` input every control_step sees. Kept analytically so the
  // per-packet path never walks the table.
  std::vector<double> live_shares_;
  EnsembleTimeout estimator_;
  FlowStateTable flows_;
  ServerLatencyTracker tracker_;
  std::unique_ptr<WeightController> controller_;
  std::vector<ShiftEvent> shifts_;
  // Per-client minimum T_LB (the §5(1) floor); only populated when
  // normalize_client_floor is enabled.
  OpenHashMap<Ipv4, SimTime> client_floor_;
  std::uint64_t samples_total_ = 0;
  std::uint64_t handshake_samples_ = 0;
  std::uint64_t retransmitted_syns_ = 0;
  std::uint64_t slots_disturbed_ = 0;
  SimTime last_restore_ = 0;
};

}  // namespace inband
