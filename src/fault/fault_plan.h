// Deterministic fault-injection plans.
//
// A FaultPlan is pure configuration: which links of a rig topology get
// stochastic per-packet faults (loss, duplication, reordering, delay
// jitter), which links flap down and back up on a schedule, and which
// servers stall, freeze or crash. Plans are expressed against symbolic link
// scopes (client→LB, LB→server, server→client) so the same plan applies to
// any rig size; the rig maps scopes onto its concrete links when it builds
// the FaultLayer.
//
// Everything stochastic is driven by RNGs derived from `FaultPlan::seed`
// via splitmix64, one engine per link, so a (config seed, fault seed) pair
// pins the complete fault schedule: two runs with the same plan produce
// byte-identical fault decisions, and the determinism checker digests the
// fault layer like any other subsystem.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "net/address.h"
#include "util/shard.h"
#include "util/time.h"

namespace inband {

// End of simulated time, for "active until the end" fault windows.
inline constexpr SimTime kEndOfTime = std::numeric_limits<SimTime>::max();

// Which directed links of a rig topology a spec applies to. The rig decides
// what the scopes mean concretely (cluster rig: client→VIP, VIP→server,
// server→client; backlogged rig: sender→VIP, VIP→receiver, receiver→sender).
enum class LinkScope { kAll, kClientToLb, kLbToServer, kServerToClient };

const char* link_scope_name(LinkScope scope);

// Stochastic per-packet faults on every matching link, active during
// [start, end). Evaluation order per packet: loss, then duplication, then
// reordering, then jitter — a lost packet is never duplicated or held.
INBAND_SHARD_SHARED_CONST
struct LinkFaultSpec {
  LinkScope scope = LinkScope::kAll;
  // Restricts the spec to one endpoint index (the server index for
  // kLbToServer / kServerToClient, the client index for kClientToLb);
  // -1 matches every link in the scope.
  int index = -1;

  double loss = 0.0;       // P(packet silently dropped)
  // P(a second copy is transmitted); the copy re-arrives within [0, 500us).
  double duplicate = 0.0;
  // P(packet held so later packets overtake it); the hold is uniform in
  // [50us, 500us).
  double reorder = 0.0;
  // Per-packet delay jitter: every passing packet is held uniform in
  // [0, jitter_max). 0 disables. Unlike LinkParams::jitter_* this jitter is
  // applied *before* the link and is not FIFO-clamped, so large draws also
  // reorder.
  SimTime jitter_max = 0;

  SimTime start = 0;
  SimTime end = kEndOfTime;
};

// Scheduled link outage: every packet sent on a matching link during
// [down_at, up_at) is dropped. The flap state machine (kPending → kDown →
// kRestored) is audited by the fault layer.
INBAND_SHARD_SHARED_CONST
struct LinkFlapSpec {
  LinkScope scope = LinkScope::kAll;
  int index = -1;
  SimTime down_at = 0;
  SimTime up_at = 0;
};

// Server-side faults, applied by the rig to its KvServers.
//  * kStall  — no request may *start* during [at, until); in-flight requests
//    finish (a GC/compaction-style process freeze).
//  * kCrash  — at `at` every open connection is reset and queued work is
//    dropped (KvServer::abort_all_connections), then the process stays
//    frozen until `until` (the supervisor restart window); the listener
//    comes back with the restart.
INBAND_SHARD_SHARED_CONST
struct ServerFaultSpec {
  enum class Kind { kStall, kCrash };
  Kind kind = Kind::kStall;
  int server = 0;
  SimTime at = 0;
  SimTime until = 0;
};

INBAND_SHARD_SHARED_CONST
struct FaultPlan {
  std::vector<LinkFaultSpec> links;
  std::vector<LinkFlapSpec> flaps;
  std::vector<ServerFaultSpec> servers;
  // Root seed for every per-link fault RNG (independent of the rig seed, so
  // the same traffic can be replayed under a different fault schedule).
  std::uint64_t seed = 0xfa017;

  bool enabled() const {
    return !links.empty() || !flaps.empty() || !servers.empty();
  }

  // Asserts that probabilities are in [0,1] and every window is ordered.
  void validate() const;
};

// Convenience: uniform background noise on every link — the "1% loss +
// reordering + jitter" robustness configuration used by tests and benches.
FaultPlan make_noise_plan(double loss, double reorder, double duplicate,
                          SimTime jitter_max, std::uint64_t seed = 0xfa017);

// One fault the layer actually executed, timestamped for experiment reports
// (scenario::fault_events_in_window). Link events carry the directed link;
// server events carry the server index in `index`.
struct FaultEvent {
  enum class Kind {
    kLoss,
    kDuplicate,
    kReorder,
    kFlapDrop,
    kLinkDown,
    kLinkUp,
    kServerStall,
    kServerCrash,
    kServerRestart,
  };
  Kind kind{};
  SimTime t = 0;
  Ipv4 from = 0;
  Ipv4 to = 0;
  int index = -1;
};

const char* fault_event_name(FaultEvent::Kind kind);

}  // namespace inband
