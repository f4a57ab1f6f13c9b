#include "net/link.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/assert.h"

namespace inband {

Link::Link(Simulator& sim, LinkParams params)
    : sim_{sim}, params_{params}, jitter_rng_{params.jitter_seed} {
  INBAND_ASSERT(params_.bandwidth_bps > 0);
  INBAND_ASSERT(params_.prop_delay >= 0);
  INBAND_ASSERT(params_.jitter_median >= 0);
  INBAND_ASSERT(params_.jitter_sigma >= 0.0);
  if (params_.queue_bytes != 0) {
    queue_limit_ = serialization_delay(params_.queue_bytes);
  }
}

SimTime Link::serialization_delay(std::uint64_t bytes) const {
  // ns = bytes * 8 * 1e9 / bps, rounded up so zero-cost packets cannot exist.
  // 64-bit division whenever the numerator fits (any packet or queue below
  // ~2.3 GB); the 128-bit path gives the same quotient beyond that.
  constexpr std::uint64_t kBitNs = 8'000'000'000;  // bits/byte * ns/s
  const std::uint64_t bps = params_.bandwidth_bps;
  SimTime d = 0;
  if (bytes <= std::numeric_limits<std::uint64_t>::max() / kBitNs) {
    const std::uint64_t num = bytes * kBitNs;
    d = static_cast<SimTime>(num / bps + (num % bps != 0 ? 1 : 0));
  } else {
    const auto num = static_cast<__uint128_t>(bytes) * kBitNs;
    d = static_cast<SimTime>((num + bps - 1) / bps);
  }
  return std::max<SimTime>(d, 1);
}

SimTime Link::backlog(SimTime now) const {
  return busy_until_ > now ? busy_until_ - now : 0;
}

void Link::set_extra_delay(SimTime d) {
  INBAND_ASSERT(d >= 0);
  extra_delay_ = d;
}

bool Link::transmit(PacketRef pkt, PacketSink& dst) {
  const SimTime now = sim_.now();
  if (backlog(now) > queue_limit_) {
    ++drops_;
    return false;  // ref dies here: slot recycles
  }
  const std::uint64_t wire_bytes = pkt->wire_size();
  const SimTime start = std::max(now, busy_until_);
  const SimTime done = start + serialization_delay(wire_bytes);
  busy_until_ = done;
  ++tx_packets_;
  tx_bytes_ += wire_bytes;
  SimTime deliver_at = done + params_.prop_delay + extra_delay_;
  if (params_.jitter_median > 0 && params_.jitter_sigma > 0.0) {
    deliver_at += static_cast<SimTime>(jitter_rng_.lognormal_median(
        static_cast<double>(params_.jitter_median), params_.jitter_sigma));
  }
  // FIFO: jitter may not reorder packets on the wire.
  deliver_at = std::max(deliver_at, last_delivery_ + 1);
  last_delivery_ = deliver_at;

  struct Deliver {
    PacketSink* dst;
    PacketRef p;
    void operator()() {
      PacketBatch batch;
      batch.push(std::move(p));
      dst->handle_batch(std::move(batch));
    }
  };
  Deliver deliver{&dst, std::move(pkt)};
  // The per-packet event must live inline in the event pool; delivery state
  // that outgrows the callback's small buffer would put an allocation back
  // on every simulated hop. A sink pointer plus a two-word handle fits.
  static_assert(EventCallback::fits_inline<Deliver>());
  sim_.schedule_at(deliver_at, std::move(deliver));
  return true;
}

}  // namespace inband
