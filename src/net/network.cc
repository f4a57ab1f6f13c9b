#include "net/network.h"

#include "util/assert.h"
#include "util/logging.h"

namespace inband {

void SendInterceptor::on_send_batch(const PacketBatch& batch, Ipv4 from,
                                    Ipv4 to, BatchVerdict& out) {
  // Default shim: element-wise scalar verdicts, strictly in index order.
  for (std::uint32_t i = 0; i < batch.size(); ++i) {
    out.v[i] = on_send(*batch[i], from, to);
  }
}

Host::Host(Simulator& sim, Network& net, Ipv4 addr, std::string name)
    : sim_{sim}, net_{net}, addr_{addr}, name_{std::move(name)} {
  net_.attach(*this);
}

void Network::attach(Host& host) {
  const auto [it, inserted] = hosts_.emplace(host.addr(), &host);
  (void)it;
  INBAND_ASSERT(inserted, "duplicate host address");
}

Link& Network::add_link(Ipv4 from, Ipv4 to, const LinkParams& params) {
  INBAND_ASSERT(from != to, "self-link");
  auto link = std::make_unique<Link>(sim_, params);
  auto& ref = *link;
  const auto [it, inserted] = links_.emplace(key(from, to), std::move(link));
  (void)it;
  INBAND_ASSERT(inserted, "duplicate link");
  return ref;
}

bool Network::has_link(Ipv4 from, Ipv4 to) const {
  return links_.find(key(from, to)) != links_.end();
}

Link& Network::link(Ipv4 from, Ipv4 to) {
  const auto it = links_.find(key(from, to));
  INBAND_ASSERT(it != links_.end(), "no such link");
  return *it->second;
}

bool Network::dispatch(Link& link, Host& dst, PacketRef pkt,
                       const SendVerdict& verdict) {
  if (verdict.drop) {
    // Lost in the network: the sender saw a successful send and recovery
    // is the transport's problem, so this is `true`, unlike a queue drop.
    // The ref dies here and the slot recycles.
    return true;
  }
  if (verdict.duplicate_hold != kNoTime) {
    PacketRef dup = pool_.acquire();
    *dup = *pkt;  // pooled clone — the duplicate no longer heap-copies
    transmit_held(link, dst, std::move(dup), verdict.duplicate_hold);
  }
  if (verdict.hold > 0) {
    transmit_held(link, dst, std::move(pkt), verdict.hold);
    return true;
  }
  if (!link.transmit(std::move(pkt), dst)) {
    ++packets_dropped_;
    return false;
  }
  return true;
}

std::uint32_t Network::send_batch(Ipv4 from, Ipv4 to, PacketBatch& batch) {
  const std::uint32_t n = batch.size();
  if (n == 0) return 0;
  const auto lit = links_.find(key(from, to));
  const bool remote = lit == links_.end();
  INBAND_ASSERT(!remote || remote_ != nullptr, "sending over a missing link");

  const SimTime now = sim_.now();
  for (std::uint32_t i = 0; i < n; ++i) {
    Packet& p = *batch[i];
    p.pkt_id = next_pkt_id_++;
    p.sent_at = now;
    if (observer_ != nullptr) observer_->on_packet(p, from, to);
  }
  packets_sent_ += n;
  ++batches_;
  batch_packets_ += n;
  if (n > max_batch_) max_batch_ = n;

  if (remote) {
    // The destination lives on another shard: the egress copies what it
    // needs and the local refs recycle here. The fault interceptor is
    // skipped by design (see RemoteEgress).
    for (std::uint32_t i = 0; i < n; ++i) {
      const bool taken = remote_->forward(*batch[i], from, to);
      INBAND_ASSERT(taken, "sending over a missing link (egress refused)");
    }
    remote_packets_ += n;
    batch.clear();
    return n;
  }

  const auto hit = hosts_.find(to);
  INBAND_ASSERT(hit != hosts_.end(), "no host attached at destination");
  Link& link = *lit->second;
  Host& dst = *hit->second;
  // Verdicts default to pass-through. Only the slots this batch uses are
  // reset, so a single send pays for one slot, not kCapacity.
  for (std::uint32_t i = 0; i < n; ++i) verdicts_.v[i] = SendVerdict{};
  if (interceptor_ != nullptr) {
    interceptor_->on_send_batch(batch, from, to, verdicts_);
  }
  std::uint32_t accepted = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (dispatch(link, dst, batch.take(i), verdicts_.v[i])) {
      ++accepted;
    }
  }
  batch.clear();
  return accepted;
}

void Network::transmit_held(Link& link, Host& dst, PacketRef pkt,
                            SimTime hold) {
  INBAND_ASSERT(hold >= 0);
  struct Release {
    Network* net;
    Link* link;
    Host* dst;
    PacketRef p;
    void operator()() {
      if (!link->transmit(std::move(p), *dst)) ++net->packets_dropped_;
    }
  };
  Release release{this, &link, &dst, std::move(pkt)};
  static_assert(EventCallback::fits_inline<Release>());
  sim_.schedule_after(hold, std::move(release));
}

}  // namespace inband
