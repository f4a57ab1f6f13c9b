// Deterministic fault-injection layer over the network fabric.
//
// A FaultLayer installs itself as the Network's SendInterceptor and decides
// the fate of every packet on the links a FaultPlan names: silent loss,
// duplication, reordering (implemented as a pre-link hold, so later packets
// genuinely overtake the held one past the link's FIFO guarantee), delay
// jitter, and scheduled link flaps. Server-side faults (stalls, freezes,
// crash/restart) are applied by fault/server_faults and report their events
// through this layer, so one object carries the complete executed fault
// timeline of a run.
//
// Every stochastic decision draws from a per-link xoshiro engine seeded from
// the plan seed and the directed link key — the whole fault schedule is a
// pure function of (plan, traffic), reproducible run to run and digestable
// by the determinism checker. Counters ("fault.*"), the FaultEvent record,
// an invariant audit (fault bookkeeping consistency, flap state machine
// validity) and a state digest make the layer observable by the same three
// correctness layers as every other subsystem (DESIGN.md §7–§8).
#pragma once

#include <cstdint>
#include <map>
#include <unordered_set>
#include <vector>

#include "fault/fault_plan.h"
#include "net/network.h"
#include "telemetry/counters.h"
#include "util/hotpath.h"
#include "util/rng.h"
#include "util/shard.h"

namespace inband {

class AuditScope;
class StateDigest;

INBAND_SHARD_CHANNEL
class FaultLayer final : public SendInterceptor {
 public:
  // One directed link of the owning rig's topology, tagged with the symbolic
  // scope and endpoint index that FaultPlan specs match against.
  struct LinkRef {
    Ipv4 from = 0;
    Ipv4 to = 0;
    LinkScope scope = LinkScope::kAll;
    int index = -1;
  };

  // Validates the plan, installs the layer as `net`'s interceptor and
  // schedules every flap transition on `sim`. `topology` lists the rig's
  // directed links; packets on links not listed pass through untouched.
  FaultLayer(Simulator& sim, Network& net, FaultPlan plan,
             std::vector<LinkRef> topology);
  ~FaultLayer() override;
  FaultLayer(const FaultLayer&) = delete;
  FaultLayer& operator=(const FaultLayer&) = delete;

  INBAND_HOT SendVerdict on_send(const Packet& pkt, Ipv4 from, Ipv4 to) override;

  // Batch form: one link lookup per batch, then element-wise decisions in
  // index order — the per-element RNG draw sequence is identical to calling
  // on_send() per packet, so digests are unchanged.
  INBAND_HOT void on_send_batch(const PacketBatch& batch, Ipv4 from, Ipv4 to,
                                BatchVerdict& out) override;

  const FaultPlan& plan() const { return plan_; }

  // Executed fault timeline, in simulation order.
  const std::vector<FaultEvent>& events() const { return events_; }

  // "fault.*" counters: loss, flap_drops, duplicates, reorders, jittered,
  // passed, decisions, flap_transitions, server_stalls/crashes/restarts.
  CounterSet& counters() { return counters_; }
  const CounterSet& counters() const { return counters_; }

  // Reporting entry for server-side faults (fault/server_faults.cc).
  void record_server_event(FaultEvent::Kind kind, int server);

  // Invariant audit: decision counters sum up, no packet both dropped and
  // forwarded, flap phases consistent with the clock and with each link's
  // down-count, event timeline monotone.
  void audit_invariants(AuditScope& scope) const;

  // Folds RNG engines, flap phases, counters, decision sets and the event
  // timeline into a determinism digest.
  void digest_state(StateDigest& digest) const;

  // Test-only: plants a packet id in both the dropped and forwarded sets so
  // negative tests can assert the auditor catches corrupt bookkeeping.
  void corrupt_bookkeeping_for_test();

 private:
  enum class FlapPhase { kPending, kDown, kRestored };

  struct FlapState {
    LinkFlapSpec spec;
    FlapPhase phase = FlapPhase::kPending;
  };

  // Per-link fault state: the plan specs that match this link, the flaps
  // that take it down, and the link's private RNG.
  struct LinkState {
    LinkRef ref;
    std::vector<const LinkFaultSpec*> specs;  // borrowed from plan_.links
    std::vector<std::size_t> flaps;           // indices into flaps_
    int down_count = 0;                       // matching flaps currently down
    Rng rng{0};
  };

  static std::uint64_t link_key(Ipv4 from, Ipv4 to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }
  static bool matches(LinkScope scope, int index, const LinkRef& ref) {
    return (scope == LinkScope::kAll || scope == ref.scope) &&
           (index < 0 || index == ref.index);
  }

  void flap_transition(std::size_t flap_index, bool down);
  void record_link_event(FaultEvent::Kind kind, const LinkRef& ref);

  // Per-packet fate on an already-resolved link (shared by both entry forms).
  INBAND_HOT SendVerdict decide(LinkState& link, const Packet& pkt);

  Simulator& sim_;
  Network& net_;
  FaultPlan plan_;
  // Keyed by directed link; std::map so iteration (digest) is deterministic.
  std::map<std::uint64_t, LinkState> links_;
  std::vector<FlapState> flaps_;
  std::vector<FaultEvent> events_;
  CounterSet counters_;
  // decide()'s counters, resolved on first use (see LazyCounter).
  LazyCounter decisions_{counters_, "fault.decisions"};
  LazyCounter flap_drops_{counters_, "fault.flap_drops"};
  LazyCounter loss_{counters_, "fault.loss"};
  LazyCounter duplicates_{counters_, "fault.duplicates"};
  LazyCounter reorders_{counters_, "fault.reorders"};
  LazyCounter jittered_{counters_, "fault.jittered"};
  LazyCounter passed_{counters_, "fault.passed"};
  // Decision bookkeeping for the "dropped xor delivered" audit. Only faulted
  // packets are tracked, so the sets stay proportional to the fault rate.
  std::unordered_set<std::uint64_t> dropped_ids_;
  std::unordered_set<std::uint64_t> touched_forwarded_ids_;
};

}  // namespace inband
