// SYN→handshake-ACK RTT estimation at the LB.
//
// The paper (§3) notes that "a simple instantiation of the proxy measurement
// idea is the estimation of the TCP round-trip time at the beginning of the
// connection by measuring the time interval between the SYN and the ACK
// packet of the TCP 3-way handshake". Both packets travel client→server, so
// the LB sees both even under DSR: the gap is
//     LB→server + server→client (SYN+ACK) + client→LB,
// i.e. one full loop of exactly the components a response latency contains,
// with the server's accept-path processing in place of request processing.
//
// This estimator complements ENSEMBLETIMEOUT: it yields a sample after one
// round trip on every *new* connection — before the flow has transmitted a
// single batch — so a freshly-routed connection immediately contributes to
// its backend's score. Stale entries (SYN seen, handshake ACK lost or never
// observed) are aged out to bound memory.
#pragma once

#include <cstdint>

#include "net/flow.h"
#include "net/packet.h"
#include "util/open_hash_map.h"
#include "util/shard.h"
#include "util/time.h"

namespace inband {

struct HandshakeRttConfig {
  std::size_t max_pending = 1 << 16;
  // A handshake older than this is abandoned (SYN retransmissions would
  // otherwise inflate the sample anyway).
  SimTime pending_timeout = sec(2);
};

INBAND_SHARD_LOCAL(lb)
class HandshakeRttEstimator {
 public:
  explicit HandshakeRttEstimator(HandshakeRttConfig config = {});

  // Feeds one client→server packet; returns the handshake RTT sample when
  // `pkt` is the ACK completing a tracked handshake, else kNoTime.
  SimTime on_packet(const Packet& pkt, SimTime now);

  std::size_t pending() const { return pending_.size(); }
  std::uint64_t samples_emitted() const { return samples_; }
  std::uint64_t retransmitted_syns() const { return retransmitted_syns_; }

 private:
  void maybe_sweep(SimTime now);

  HandshakeRttConfig config_;
  // flow -> time of first SYN.
  OpenHashMap<FlowKey, SimTime> pending_;
  SimTime last_sweep_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t retransmitted_syns_ = 0;
};

}  // namespace inband
