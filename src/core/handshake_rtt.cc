#include "core/handshake_rtt.h"

#include "util/assert.h"

namespace inband {

HandshakeRttEstimator::HandshakeRttEstimator(HandshakeRttConfig config)
    : config_{config} {
  INBAND_ASSERT(config_.max_pending > 0);
}

void HandshakeRttEstimator::maybe_sweep(SimTime now) {
  if (now - last_sweep_ < config_.pending_timeout) return;
  last_sweep_ = now;
  // detlint:allow(unordered-iter): erases the timed-out subset; expiry is decided per entry, independent of visit order
  pending_.erase_if([&](const auto& kv) {
    return now - kv.second >= config_.pending_timeout;
  });
}

SimTime HandshakeRttEstimator::on_packet(const Packet& pkt, SimTime now) {
  maybe_sweep(now);

  if (pkt.has(tcpflag::kSyn) && !pkt.has(tcpflag::kAck)) {
    // hotlint:allow(hot-growth): one pending entry per handshake, swept out
    const auto [it, inserted] = pending_.emplace(pkt.flow, now);
    if (!inserted) {
      // SYN retransmission: the eventual ACK gap would measure the retry
      // timeout, not the path — drop the handshake instead.
      ++retransmitted_syns_;
      pending_.erase(it);
      return kNoTime;
    }
    if (pending_.size() > config_.max_pending) {
      // Evict the oldest pending handshake (SYN floods must not grow this
      // table; a production LB would use a SYN-cookie-style fixed slab).
      // Ties on the SYN timestamp break on the flow key, never on
      // hash-table position — same-tick SYN floods evict reproducibly.
      auto victim = pending_.end();
      // detlint:allow(unordered-iter): selects the unique minimum by a value-based key; the result is independent of visit order
      for (auto it2 = pending_.begin(); it2 != pending_.end(); ++it2) {
        if (victim == pending_.end() || it2->second < victim->second ||
            (it2->second == victim->second && it2->first < victim->first)) {
          victim = it2;
        }
      }
      pending_.erase(victim);
    }
    return kNoTime;
  }

  if (pkt.has(tcpflag::kAck) && !pkt.has(tcpflag::kSyn) &&
      !pkt.has(tcpflag::kRst)) {
    const auto it = pending_.find(pkt.flow);
    if (it == pending_.end()) return kNoTime;
    const SimTime sample = now - it->second;
    pending_.erase(it);
    ++samples_;
    return sample;
  }

  if (pkt.has(tcpflag::kRst)) pending_.erase(pkt.flow);
  return kNoTime;
}

}  // namespace inband
