// Cross-shard packet channel: SPSC transport plus conservative horizon.
//
// One ShardChannel is one directed cross-shard trunk (source shard ->
// destination shard) with a fixed positive latency L, the protocol's
// lookahead (sim/parallel.h). It satisfies shardlint's CHANNEL contract the
// same way Network and FaultLayer do — it is the explicit hand-off point
// between two ownership domains, and nothing else mutable is shared
// (DESIGN.md cross-references shardlint §9.2).
//
// Producer side (source shard's worker):
//   * push(now, from, to, pkt) files a delivery at now + L. Per-channel
//     deliver times are monotone because `now` is and L is fixed — the queue
//     is FIFO in delivery order, so the head is always the channel minimum.
//   * announce(frontier) raises the horizon word to frontier + L (monotone),
//     *after* any pushes from the same slice — release order matters and is
//     provided by the atomic store. It also reclaims consumed slots:
//     producer-side destruction, because a slot's packet holds PayloadRefs
//     whose non-atomic counts (and pooled storage) belong to the producing
//     shard's thread (util/spsc_queue.h).
//
// Consumer side (destination shard's worker):
//   * lower_bound() is the conservative bound: the head's deliver time when
//     a message is visible, else the announced horizon. The horizon is
//     loaded (acquire) *before* peeking — the release/acquire pair
//     guarantees that if the load observed announce(F), every push before
//     that announce is visible to the peek, so an empty queue really means
//     "nothing below the horizon".
//   * take_detached() deep-copies the head packet with fresh message
//     ownership (AppPayload::clone_detached) and consumes the slot. The
//     consumer reads the producer's payloads but never copies or drops a
//     PayloadRef to them, so no count is touched off its shard.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>

#include "net/packet.h"
#include "util/assert.h"
#include "util/shard.h"
#include "util/spsc_queue.h"
#include "util/time.h"

namespace inband {

// Frontier ceiling for finished shards: far beyond any simulated end time,
// with headroom so adding a link latency cannot overflow SimTime.
inline constexpr SimTime kFrontierMax =
    std::numeric_limits<SimTime>::max() / 4;

// One packet in flight between shards. `to` is the delivery address on the
// destination shard (VIP or host); `from` is kept for tracing.
struct CrossPacket {
  SimTime deliver_at = kNoTime;
  Ipv4 from = 0;
  Ipv4 to = 0;
  Packet pkt;
};

INBAND_SHARD_CHANNEL
class ShardChannel {
 public:
  ShardChannel(std::uint32_t id, SimTime latency) : id_{id}, latency_{latency} {
    INBAND_ASSERT(latency > 0,
                  "cross-shard links need positive latency: the lookahead "
                  "is what makes conservative progress possible");
  }
  ShardChannel(const ShardChannel&) = delete;
  ShardChannel& operator=(const ShardChannel&) = delete;

  std::uint32_t id() const { return id_; }
  SimTime latency() const { return latency_; }

  // --- producer side (source shard) ---

  void push(SimTime now, Ipv4 from, Ipv4 to, const Packet& pkt) {
    const SimTime deliver_at = now + latency_;
    INBAND_ASSERT(deliver_at >= horizon_.load(std::memory_order_relaxed),
                  "cross-shard send below the announced horizon");
    q_.push(CrossPacket{deliver_at, from, to, pkt});
  }

  void announce(SimTime frontier) {
    INBAND_ASSERT(frontier <= kFrontierMax);
    const SimTime h = frontier + latency_;
    if (h > horizon_.load(std::memory_order_relaxed)) {
      horizon_.store(h, std::memory_order_release);
    }
    q_.reclaim();
  }

  std::uint64_t pushed() const { return q_.pushed(); }

  // --- consumer side (destination shard) ---

  // Earliest time at which this channel can still deliver anything the
  // consumer has not yet taken.
  SimTime lower_bound() {
    const SimTime h = horizon_.load(std::memory_order_acquire);
    const CrossPacket* head = q_.peek();  // peek AFTER the horizon load
    return head != nullptr ? head->deliver_at : h;
  }

  const CrossPacket* peek() { return q_.peek(); }

  // Detached deep copy of the head packet (fresh message ownership; see
  // net/packet.h detach_packet_copy); consumes the slot. The producer-owned
  // original is destroyed later, by the producer, in announce()'s reclaim.
  Packet take_detached(SimTime* deliver_at, Ipv4* from, Ipv4* to);

  std::uint64_t consumed_count() const { return q_.consumed(); }

 private:
  const std::uint32_t id_;
  const SimTime latency_;
  std::atomic<SimTime> horizon_{0};
  SpscQueue<CrossPacket> q_;
};

}  // namespace inband
