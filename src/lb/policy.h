// Routing-policy interface for the LB dataplane.
//
// A policy decides where *new* flows go and observes the client→server
// packets the LB forwards (after conntrack resolution, so the packet comes
// annotated with the backend it is bound to). The observation hook is the
// entire vantage the paper allows: requests only, no responses.
//
// Per flow the LB calls, in order: on_packet for every packet from the
// first through the one that closes the flow (its first FIN or RST), then
// on_flow_closed once, right after on_packet for that closing packet.
// Packets the LB forwards after the close (the last ACK, retransmitted
// FINs, a late RST) reach neither hook, so per-flow state a policy frees in
// on_flow_closed stays freed. A packet that arrives once conntrack has
// forgotten the flow starts a new flow (new_flow = true).
#pragma once

#include <string>

#include "lb/backend.h"
#include "net/packet.h"
#include "util/shard.h"
#include "util/time.h"

namespace inband {

class AuditScope;
class StateDigest;

INBAND_SHARD_LOCAL(lb)
class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;

  virtual std::string name() const = 0;

  // Backend for a new flow; kNoBackend refuses (the LB drops the packet).
  virtual BackendId pick(const FlowKey& flow, SimTime now) = 0;

  // A forwarded client→server packet of an open flow, annotated with its
  // backend and whether this packet created the flow's conntrack entry.
  // Includes the packet that closes the flow.
  virtual void on_packet(const Packet& pkt, BackendId backend, SimTime now,
                         bool new_flow) {
    (void)pkt;
    (void)backend;
    (void)now;
    (void)new_flow;
  }

  // The flow was seen finishing (FIN or RST through the LB), after
  // on_packet for that packet. No on_packet for the flow follows.
  virtual void on_flow_closed(const FlowKey& flow, BackendId backend,
                              SimTime now) {
    (void)flow;
    (void)backend;
    (void)now;
  }

  // The backend pool changed (health flip, weight change). Policies that
  // precompute structures (hash tables, weight sums) rebuild here. Existing
  // connections are unaffected: conntrack pins them until they finish.
  virtual void on_pool_change(const BackendPool& pool) { (void)pool; }

  // Invariant audit over the policy's internal structures (hash tables,
  // per-flow state). Default: nothing to audit.
  virtual void audit_invariants(AuditScope& scope) const { (void)scope; }

  // Folds policy state into a determinism digest. Default: nothing beyond
  // what the LB itself digests.
  virtual void digest_state(StateDigest& digest) const { (void)digest; }
};

}  // namespace inband
