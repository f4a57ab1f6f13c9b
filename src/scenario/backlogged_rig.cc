#include "scenario/backlogged_rig.h"

#include "util/assert.h"

namespace inband {

namespace {
constexpr Ipv4 kSenderAddr = make_ipv4(10, 0, 0, 1);
constexpr Ipv4 kVip = make_ipv4(10, 1, 0, 1);
constexpr Ipv4 kReceiverAddr = make_ipv4(10, 2, 0, 1);
constexpr std::uint16_t kSinkPort = 9000;

// One-way propagation delays; base RTT ≈ sender→LB + LB→receiver +
// receiver→sender (+ serialization).
constexpr SimTime kSenderLbDelay = us(50);
constexpr SimTime kLbReceiverDelay = us(50);
constexpr SimTime kReceiverSenderDelay = us(100);
constexpr std::uint64_t kBandwidthBps = 10'000'000'000;

// Per-packet delay jitter (log-normal), modelling kernel/NIC scheduling
// noise. Without it the simulated gaps are implausibly clean and *every*
// timeout separates batches perfectly — the paper's Fig. 2(a) failure modes
// only exist because real paths are noisy. The return (ACK) path carries the
// larger share, spreading the client's transmissions within a window.
constexpr SimTime kForwardJitterMedian = us(2);
constexpr double kForwardJitterSigma = 0.8;
constexpr SimTime kReturnJitterMedian = us(8);
constexpr double kReturnJitterSigma = 1.3;
}  // namespace

BackloggedRig::BackloggedRig(BackloggedRigConfig config)
    : config_{config}, net_{sim_} {
  TcpConfig tcp;
  tcp.mss = config_.mss;
  tcp.cwnd_bytes = config_.window_segments * config_.mss;
  tcp.delayed_ack = config_.delayed_ack;
  tcp.delack_timeout = config_.delack_timeout;
  tcp.pacing = config_.pacing;
  tcp.pacing_rate_bps = config_.pacing_rate_bps;

  sender_host_ = std::make_unique<TcpHost>(sim_, net_, kSenderAddr, "sender",
                                           tcp, config_.seed);
  // The receiver shares the TCP options: delayed ACKs in particular matter
  // at the receiver, whose ACK policy shapes the sender's triggered
  // transmissions.
  receiver_host_ = std::make_unique<TcpHost>(sim_, net_, kReceiverAddr,
                                             "receiver", tcp,
                                             config_.seed + 1);

  LinkParams up{kBandwidthBps, kSenderLbDelay, 0, kForwardJitterMedian,
                kForwardJitterSigma, config_.seed ^ 0xf01};
  LinkParams mid{kBandwidthBps, kLbReceiverDelay, 0, kForwardJitterMedian,
                 kForwardJitterSigma, config_.seed ^ 0xf02};
  LinkParams back{kBandwidthBps, kReceiverSenderDelay, 0, kReturnJitterMedian,
                  kReturnJitterSigma, config_.seed ^ 0xf03};
  net_.add_link(kSenderAddr, kVip, up);
  net_.add_link(kVip, kReceiverAddr, mid);
  net_.add_link(kReceiverAddr, kSenderAddr, back);

  BackendPool pool{{0, "receiver", kReceiverAddr, 1, true}};
  auto base_policy =
      std::make_unique<StaticMaglevPolicy>(pool, /*table_size=*/251);
  auto tapped = std::make_unique<TapPolicy>(
      std::move(base_policy),
      [this](const Packet& pkt, BackendId, SimTime now) {
        (void)pkt;
        arrivals_.push_back(now);
      });
  lb_ = std::make_unique<LoadBalancer>(sim_, net_, kVip, "lb", pool,
                                       std::move(tapped));

  if (config_.fault.enabled()) {
    INBAND_ASSERT(config_.fault.servers.empty(),
                  "backlogged rig has no KvServers for server faults");
    fault_ = std::make_unique<FaultLayer>(
        sim_, net_, config_.fault,
        std::vector<FaultLayer::LinkRef>{
            {kSenderAddr, kVip, LinkScope::kClientToLb, 0},
            {kVip, kReceiverAddr, LinkScope::kLbToServer, 0},
            {kReceiverAddr, kSenderAddr, LinkScope::kServerToClient, 0}});
  }

  bulk_sink_ = std::make_unique<BulkSink>(*receiver_host_, kSinkPort);
  bulk_sender_ = std::make_unique<BulkSender>(
      *sender_host_, Endpoint{kVip, kSinkPort}, tcp);
  bulk_sender_->set_rtt_recorder([this](SimTime now, SimTime rtt) {
    ground_truth_.push_back({now, rtt});
  });
}

void BackloggedRig::run() {
  if (config_.step_time < config_.duration && config_.step_extra > 0) {
    sim_.schedule_at(config_.step_time, [this] {
      net_.link(kVip, kReceiverAddr).set_extra_delay(config_.step_extra);
    });
  }
  bulk_sender_->start();
  sim_.run_until(config_.duration);
}

}  // namespace inband
