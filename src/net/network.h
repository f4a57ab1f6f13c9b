// Network fabric: hosts wired together by directed point-to-point links.
//
// Routing is a single hop: send_batch(from, to, batch) looks up the (from,
// to) link and delivers to the host attached at `to`. The delivery address is
// deliberately independent of the packet's flow key — that is how an L4 LB
// forwards a client→VIP packet to a chosen backend without rewriting the
// flow (the server accepts traffic for the VIP, as under real direct server
// return), and how the server's response travels straight back to the client
// without ever crossing the LB.
//
// The data plane is batch-oriented: producers fill a PacketBatch of pooled
// buffers (Network owns the PacketPool) and hand the whole batch to
// send_batch(), which stamps, observes, intercepts, and clocks every element
// with one virtual dispatch per layer instead of one per packet — BESS's
// ProcessBatch module model applied to the sim/net boundary. It is the only
// way into the fabric: Host::send() and send_to() hand it a batch of one.
//
// Topology is fixed after setup; sending over a missing link is a programming
// error and asserts.
#pragma once

#include <memory>
#include <string>

#include "net/link.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/simulator.h"
#include "util/hotpath.h"
#include "util/open_hash_map.h"
#include "util/shard.h"

namespace inband {

class Host;

// Fate of a packet decided by a SendInterceptor before the link sees it.
// `drop` loses the packet silently (the sender cannot tell — recovery is the
// transport's problem). `hold` delays handing the packet to the link; packets
// sent later with a smaller hold overtake it, which is how the fault layer
// produces genuine reordering past the link's FIFO guarantee. A
// `duplicate_hold != kNoTime` additionally transmits a second copy of the
// packet after that hold.
struct SendVerdict {
  bool drop = false;
  SimTime hold = 0;
  SimTime duplicate_hold = kNoTime;
};

// Element-wise verdicts for one batch; slot i decides batch[i]'s fate.
struct BatchVerdict {
  SendVerdict v[PacketBatch::kCapacity];
};

// In-band interposition point for fault injection: consulted once per send
// after pkt_id/sent_at stamping and the observer, so every layer sees the
// packet exactly once regardless of its fate.
//
// The network consults on_send_batch() — one virtual call per batch, single
// sends included. The default unrolls to on_send() element-wise; overriders
// must decide elements strictly in index order, because decision order is
// RNG-draw order and therefore part of the reproducibility contract.
class SendInterceptor {
 public:
  virtual ~SendInterceptor() = default;
  virtual SendVerdict on_send(const Packet& pkt, Ipv4 from, Ipv4 to) = 0;
  virtual void on_send_batch(const PacketBatch& batch, Ipv4 from, Ipv4 to,
                             BatchVerdict& out);
};

// Passive observation point: sees every packet handed to the fabric (after
// stamping, before interception), in send order. The trace recorder is the
// canonical implementation. Symmetric with SendInterceptor — an interface,
// not a std::function, so installing one costs no type-erased storage and
// the hot path stays allocation-free.
class PacketObserver {
 public:
  virtual ~PacketObserver() = default;
  virtual void on_packet(const Packet& pkt, Ipv4 from, Ipv4 to) = 0;
};

// Escape hatch for cross-shard traffic (sim/parallel.h): consulted when a
// send finds no (from, to) link. Returning true means the egress owns the
// packet's onward journey — the packet was stamped and observed normally and
// the egress copied what it needs (the local PacketRef still recycles
// locally). Returning false falls through to the missing-link assertion, so
// a typo'd address stays a programming error. The fault interceptor is
// deliberately NOT consulted for egressed packets: cross-shard trunks are
// the synchronization boundary, not a faultable link (DESIGN.md).
class RemoteEgress {
 public:
  virtual ~RemoteEgress() = default;
  virtual bool forward(const Packet& pkt, Ipv4 from, Ipv4 to) = 0;
};

// One-stop counters for the fabric: send/drop totals, batch shape, and the
// packet pool's occupancy statistics. Every send is a batch (a single send is
// a batch of one), so batch_packets == packets_sent.
struct NetStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_dropped = 0;  // queue (admission) drops
  std::uint64_t batches = 0;          // non-empty send_batch() calls
  std::uint64_t batch_packets = 0;    // packets in those batches
  std::uint64_t max_batch = 0;        // largest batch seen
  std::uint64_t remote_packets = 0;   // handed to the remote egress
  PacketPool::Stats pool;
};

INBAND_SHARD_CHANNEL
class Network {
 public:
  explicit Network(Simulator& sim) : sim_{sim} {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Simulator& sim() { return sim_; }

  // The fabric's packet-buffer pool. Producers acquire slots here, fill them
  // in place, and the slots recycle when the last PacketRef dies.
  PacketPool& pool() { return pool_; }

  // Registers the host under its address (must be unique).
  void attach(Host& host);

  // Creates a directed link from `from` to `to`.
  Link& add_link(Ipv4 from, Ipv4 to, const LinkParams& params);

  // Creates both directions with the same parameters.
  void add_duplex_link(Ipv4 a, Ipv4 b, const LinkParams& params) {
    add_link(a, b, params);
    add_link(b, a, params);
  }

  // Link accessor for runtime tweaks (delay injection); asserts if missing.
  Link& link(Ipv4 from, Ipv4 to);
  bool has_link(Ipv4 from, Ipv4 to) const;

  // The fabric's only entry point. Stamps pkt_id / sent_at on every element,
  // runs the observer, and counts the batch; then either runs the
  // interceptor (one on_send_batch call) and clocks the survivors onto the
  // (from, to) link in index order, or, with no such link, hands every
  // element to the remote egress. Consumes the batch (empty on return).
  // Returns the number of packets not dropped at the queue.
  INBAND_HOT std::uint32_t send_batch(Ipv4 from, Ipv4 to, PacketBatch& batch);

  // Installs (or clears, with nullptr) the passive observer. Borrowed: it
  // must outlive the network or be cleared first.
  void set_observer(PacketObserver* observer) { observer_ = observer; }
  PacketObserver* observer() const { return observer_; }

  // Installs (or clears, with nullptr) the fault-injection interceptor. The
  // interceptor is borrowed and must outlive the network or be cleared first.
  void set_interceptor(SendInterceptor* interceptor) {
    interceptor_ = interceptor;
  }

  // Installs (or clears, with nullptr) the cross-shard egress. Borrowed.
  void set_remote_egress(RemoteEgress* egress) { remote_ = egress; }

  // Host lookup by address; nullptr when nothing is attached there. The
  // cross-shard ingress uses this to deliver into the local topology.
  Host* host_at(Ipv4 addr) const {
    const auto it = hosts_.find(addr);
    return it == hosts_.end() ? nullptr : it->second;
  }

  NetStats stats() const {
    NetStats s;
    s.packets_sent = packets_sent_;
    s.packets_dropped = packets_dropped_;
    s.batches = batches_;
    s.batch_packets = batch_packets_;
    s.max_batch = max_batch_;
    s.remote_packets = remote_packets_;
    s.pool = pool_.stats();
    return s;
  }

 private:
  static std::uint64_t key(Ipv4 from, Ipv4 to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  // Applies one verdict to a stamped packet: drop, clone-and-hold, hold, or
  // clock onto the link now. Returns false only on a queue drop.
  INBAND_HOT bool dispatch(Link& link, Host& dst, PacketRef pkt,
                           const SendVerdict& verdict);

  // Transmits `pkt` on `link` toward `dst` after `hold` of simulated time.
  void transmit_held(Link& link, Host& dst, PacketRef pkt, SimTime hold);

  Simulator& sim_;
  PacketPool pool_;
  OpenHashMap<Ipv4, Host*> hosts_;
  OpenHashMap<std::uint64_t, std::unique_ptr<Link>> links_;
  PacketObserver* observer_ = nullptr;
  SendInterceptor* interceptor_ = nullptr;
  RemoteEgress* remote_ = nullptr;
  // send_batch()'s verdict scratch. Nothing it calls sends, so one buffer
  // serves every call.
  BatchVerdict verdicts_;
  std::uint64_t next_pkt_id_ = 1;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_dropped_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t batch_packets_ = 0;
  std::uint64_t max_batch_ = 0;
  std::uint64_t remote_packets_ = 0;
};

// A node attached to the network. Subclasses implement handle_batch();
// outbound traffic goes through send() / send_to() / send_batch(). A mixin,
// not an entity: a Host instance lives in whatever domain its derived class
// does (TcpHost and KvServer in `shard`, LoadBalancer in `lb`), hence
// `owner`.
INBAND_SHARD_LOCAL(owner)
class Host : public PacketSink {
 public:
  Host(Simulator& sim, Network& net, Ipv4 addr, std::string name);
  ~Host() override = default;

  Ipv4 addr() const { return addr_; }
  const std::string& name() const { return name_; }
  Simulator& sim() { return sim_; }
  Network& network() { return net_; }

  // Sends one packet toward its flow destination (the normal endpoint case).
  // Returns false on a queue drop.
  INBAND_HOT bool send(PacketRef pkt) {
    const Ipv4 to = pkt->flow.dst.addr;
    return send_to(to, std::move(pkt));
  }

  // Sends one packet toward an explicit next hop regardless of the flow key
  // (the LB forwarding case): a batch of one through Network::send_batch.
  INBAND_HOT bool send_to(Ipv4 to, PacketRef pkt) {
    PacketBatch batch;
    batch.push(std::move(pkt));
    return net_.send_batch(addr_, to, batch) == 1;
  }

  // Sends a whole batch toward one next hop; see Network::send_batch.
  INBAND_HOT std::uint32_t send_batch(Ipv4 to, PacketBatch& batch) {
    return net_.send_batch(addr_, to, batch);
  }

 private:
  Simulator& sim_;
  Network& net_;
  Ipv4 addr_;
  std::string name_;
};

}  // namespace inband
