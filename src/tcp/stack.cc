#include "tcp/stack.h"

#include "check/invariant_auditor.h"
#include "check/state_digest.h"
#include "util/assert.h"
#include "util/hotpath.h"
#include "util/logging.h"
#include "util/sorted_view.h"

namespace inband {

TcpStack::TcpStack(Host& host, TcpConfig default_config, std::uint64_t seed)
    : host_{host},
      default_config_{default_config},
      rng_{splitmix64(seed ^ host.addr())} {}

std::uint32_t TcpStack::make_isn() {
  ++conn_counter_;
  return static_cast<std::uint32_t>(rng_());
}

void TcpStack::add_connection(const FlowKey& key,
                              std::unique_ptr<TcpConnection> conn) {
  const bool inserted = conns_.emplace(key, std::move(conn)).second;
  INBAND_ASSERT(inserted, "duplicate connection key");
  ++ports_in_use_[key.src.port];
}

void TcpStack::erase_connection(const FlowKey& key) {
  conns_.erase(key);
  const auto it = ports_in_use_.find(key.src.port);
  INBAND_DCHECK(it != ports_in_use_.end() && it->second > 0);
  if (--it->second == 0) ports_in_use_.erase(it);
}

std::uint16_t TcpStack::allocate_port() {
  for (int attempts = 0; attempts < 65536; ++attempts) {
    const std::uint16_t candidate = next_ephemeral_;
    next_ephemeral_ =
        next_ephemeral_ >= 60999 ? 32768 : static_cast<std::uint16_t>(
                                               next_ephemeral_ + 1);
    if (!ports_in_use_.contains(candidate) &&
        listeners_.find(candidate) == listeners_.end()) {
      return candidate;
    }
  }
  INBAND_ASSERT(false, "ephemeral port space exhausted");
  return 0;
}

TcpConnection* TcpStack::connect(Endpoint remote) {
  return connect(remote, default_config_);
}

TcpConnection* TcpStack::connect(Endpoint remote, const TcpConfig& config) {
  const Endpoint local{host_.addr(), allocate_port()};
  const FlowKey key{local, remote, IpProto::kTcp};
  auto conn = std::make_unique<TcpConnection>(*this, key, config, make_isn(),
                                              /*active_open=*/true);
  auto* ptr = conn.get();
  add_connection(key, std::move(conn));
  ++initiated_;
  return ptr;
}

void TcpStack::listen(std::uint16_t port, AcceptCallback cb) {
  INBAND_ASSERT(cb != nullptr);
  const auto [it, inserted] = listeners_.emplace(port, std::move(cb));
  (void)it;
  INBAND_ASSERT(inserted, "port already listening");
}

TcpConnection* TcpStack::find(const FlowKey& local_view) {
  const auto it = conns_.find(local_view);
  return it == conns_.end() ? nullptr : it->second.get();
}

void TcpStack::on_packet(const Packet& pkt) {
  const FlowKey local_view = pkt.flow.reversed();
  if (auto* conn = find(local_view)) {
    conn->on_packet(pkt);
    return;
  }
  // No connection. A SYN to a listening port creates one; anything else
  // (except an RST) is answered with RST, as a real stack would.
  if (pkt.has(tcpflag::kSyn) && !pkt.has(tcpflag::kAck)) {
    const auto lit = listeners_.find(pkt.flow.dst.port);
    if (lit != listeners_.end()) {
      INBAND_COLD_OK("connection admission: once per flow, not per segment");
      auto conn = std::make_unique<TcpConnection>(
          *this, local_view, default_config_, make_isn(),
          /*active_open=*/false);
      auto* ptr = conn.get();
      add_connection(local_view, std::move(conn));
      ++accepted_;
      lit->second(*ptr);      // app installs callbacks
      ptr->on_packet(pkt);    // processes the SYN, sends SYN+ACK
      return;
    }
  }
  if (!pkt.has(tcpflag::kRst)) send_rst_for(pkt);
}

void TcpStack::send_rst_for(const Packet& pkt) {
  PacketRef rst = pool().acquire();
  rst->flow = pkt.flow.reversed();
  rst->flags = tcpflag::kRst | tcpflag::kAck;
  rst->seq = pkt.ack;  // plausible; peers tear down on any RST in this model
  rst->ack = pkt.seq + pkt.seq_len();
  ++resets_sent_;
  output(std::move(rst));
}

void TcpStack::output(PacketRef pkt) { host_.send(std::move(pkt)); }

void TcpStack::output_batch(Ipv4 to, PacketBatch& batch) {
  host_.send_batch(to, batch);
}

void TcpStack::reap(const FlowKey& key) {
  // Deferred: the connection may be deep in its own call stack right now.
  auto erase_if_closed = [this, key] {
    const auto it = conns_.find(key);
    if (it != conns_.end() && it->second->state() == TcpState::kClosed) {
      erase_connection(key);
    }
  };
  static_assert(EventCallback::fits_inline<decltype(erase_if_closed)>());
  sim().schedule_after(0, std::move(erase_if_closed));
}

void TcpStack::audit_invariants(AuditScope& scope) const {
  // Sorted snapshot: per-connection audits run (and report failures) in
  // flow-key order, so a failing run reports identically across reruns.
  for (const auto* e : sorted_entries(conns_)) {
    const auto& [key, conn] = *e;
    if (!scope.check(conn != nullptr, "demux-entry-live", format_flow(key))) {
      continue;
    }
    scope.check(conn->key() == key, "demux-key-matches-connection",
                format_flow(key));
    conn->audit_invariants(scope);
  }
  scope.check(conn_counter_ == initiated_ + accepted_,
              "connection-counter-consistent");
  scope.check(conns_.size() <= conn_counter_, "live-bounded-by-created");
  std::size_t on_ports = 0;
  // detlint:allow(unordered-iter): commutative sum; order-independent
  for (const auto& [port, count] : ports_in_use_) on_ports += count;
  scope.check(on_ports == conns_.size(), "port-counts-cover-connections");
}

void TcpStack::digest_state(StateDigest& digest) const {
  UnorderedDigest conns;
  // detlint:allow(unordered-iter): per-connection digests fold through the commutative UnorderedDigest combiner
  for (const auto& [key, conn] : conns_) {
    StateDigest e;
    conn->digest_state(e);
    conns.add(e);
  }
  conns.mix_into(digest);
  digest.mix(listeners_.size());
  digest.mix(next_ephemeral_);
  digest.mix(conn_counter_);
  digest.mix(resets_sent_);
  digest.mix(accepted_);
  digest.mix(initiated_);
  for (const auto w : rng_.state()) digest.mix(w);
}

}  // namespace inband
