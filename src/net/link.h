// Point-to-point directed link.
//
// Models serialization delay (bandwidth), propagation delay, a bounded
// drop-tail FIFO queue, and an injectable extra delay that experiments can
// change at runtime — that knob is exactly how the Fig. 3 experiment inflates
// the LB→server path by 1 ms mid-run.
//
// The queue is "virtual": instead of buffering packets, the link tracks the
// time at which its transmitter frees up. A packet arriving when the backlog
// already exceeds the configured queue size is dropped. This is the standard
// allocation-free fluid-queue model and is exact for FIFO drop-tail.
#pragma once

#include <cstdint>
#include <limits>

#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/simulator.h"
#include "util/hotpath.h"
#include "util/rng.h"
#include "util/shard.h"
#include "util/time.h"

namespace inband {

// Destination abstraction: anything that can accept delivered packets.
// handle_batch() is the only way a packet leaves the fabric.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void handle_batch(PacketBatch&& batch) = 0;
};

struct LinkParams {
  std::uint64_t bandwidth_bps = 10'000'000'000;  // 10 Gb/s
  SimTime prop_delay = us(10);
  std::uint64_t queue_bytes = 0;  // 0 => unbounded queue

  // Per-packet delay jitter (log-normal with the given median/sigma; 0
  // disables). Models the kernel/NIC scheduling and cross-traffic queueing
  // noise every real path has — the noise that makes timeout selection
  // nontrivial in the first place (paper §3). Delivery order stays FIFO.
  SimTime jitter_median = 0;
  double jitter_sigma = 0.0;
  std::uint64_t jitter_seed = 0x7177e6;
};

INBAND_SHARD_LOCAL(shard)
class Link {
 public:
  Link(Simulator& sim, LinkParams params);

  // Transmits `pkt` toward `dst`. Returns false if the packet was dropped by
  // the queue. Delivery is scheduled on the simulator and arrives through
  // dst.handle_batch() as a singleton batch.
  INBAND_HOT bool transmit(PacketRef pkt, PacketSink& dst);

  // Runtime-adjustable additional one-way delay (>= 0); applied to packets
  // transmitted after the change.
  void set_extra_delay(SimTime d);
  SimTime extra_delay() const { return extra_delay_; }

  const LinkParams& params() const { return params_; }

  // Serialization time for a packet of `bytes` on this link.
  SimTime serialization_delay(std::uint64_t bytes) const;

  // Current transmit backlog (ns of queued serialization work).
  SimTime backlog(SimTime now) const;

  std::uint64_t tx_packets() const { return tx_packets_; }
  std::uint64_t tx_bytes() const { return tx_bytes_; }
  std::uint64_t drops() const { return drops_; }

 private:
  Simulator& sim_;
  LinkParams params_;
  Rng jitter_rng_;
  // Backlog (ns) beyond which transmit() drops: serialization_delay of
  // queue_bytes, fixed at construction; no limit when queue_bytes == 0.
  SimTime queue_limit_ = std::numeric_limits<SimTime>::max();
  SimTime extra_delay_ = 0;
  SimTime busy_until_ = 0;
  SimTime last_delivery_ = 0;
  std::uint64_t tx_packets_ = 0;
  std::uint64_t tx_bytes_ = 0;
  std::uint64_t drops_ = 0;
};

}  // namespace inband
