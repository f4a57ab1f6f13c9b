// Algorithm 1 — FIXEDTIMEOUT (HotNets '22 §3).
//
// Splits a flow's client→server packet arrivals into batches using a fixed
// inter-batch timeout δ, flowlet-style: a packet whose gap from the previous
// packet exceeds δ starts a new batch, and the gap between the *first*
// packets of successive batches is reported as a response-latency sample
// T_LB. The batch-opening packet is presumed causally triggered by a server
// response that the LB cannot see (direct server return).
//
// Faithful transcription, including the edge case the pseudocode leaves
// implicit: the very first packet of a flow initializes both timestamps and
// produces no sample (there is no previous batch to measure from).
//
// State is a plain struct so callers control layout; the algorithm object
// is immutable and shareable. The ensemble of Algorithm 2 runs k instances
// over one flow and keeps their state in its own compact layout
// (core/ensemble_timeout.h).
#pragma once

#include "util/shard.h"
#include "util/time.h"

namespace inband {

struct FixedTimeoutState {
  SimTime time_last_batch = kNoTime;  // f.time_last_batch
  SimTime time_last_pkt = kNoTime;    // f.time_last_pkt
};

INBAND_SHARD_LOCAL(lb)
class FixedTimeout {
 public:
  explicit FixedTimeout(SimTime delta);

  // Processes one packet arrival at time `now`. Returns the new T_LB sample,
  // or kNoTime when this packet does not produce one ("undef" in the paper).
  SimTime on_packet(FixedTimeoutState& f, SimTime now) const;

  SimTime delta() const { return delta_; }

 private:
  SimTime delta_;
};

}  // namespace inband
