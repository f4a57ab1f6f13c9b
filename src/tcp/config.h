// TCP model configuration.
//
// The model implements the mechanisms that produce causally-triggered
// transmissions — flow control (a fixed window), ACK clocking, piggybacked
// cumulative ACKs — plus the §5 "timing violation" behaviours (delayed ACKs,
// pacing) as switchable options. Congestion control is deliberately a fixed
// window: the paper's flows are window/application-limited datacenter flows,
// and a fixed quota is precisely the "flow control" the measurement technique
// keys on.
#pragma once

#include <cstdint>

#include "util/time.h"

namespace inband {

struct TcpConfig {
  // Maximum segment payload bytes.
  std::uint32_t mss = 1448;

  // Fixed send window (the flow-control quota), bytes. The effective window
  // is min(cwnd_bytes, peer receive window).
  std::uint32_t cwnd_bytes = 16 * 1448;

  // Delayed acknowledgements (off by default: memcached-style workloads run
  // with quickack-ish behaviour; the ablation bench turns this on).
  bool delayed_ack = false;
  SimTime delack_timeout = ms(40);
  int ack_every = 2;  // ack at latest every N full segments

  // Packet pacing of data segments (off by default; ablation knob).
  bool pacing = false;
  std::uint64_t pacing_rate_bps = 1'000'000'000;

  // Initial retransmission timeout (RFC 6298 shape; the bounds and the
  // retry limit are fixed in connection.cc).
  SimTime rto_initial = ms(50);
};

}  // namespace inband
