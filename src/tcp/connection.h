// TCP connection state machine.
//
// Implements the subset of TCP that matters for the paper's phenomena:
//  * three-way handshake (with SYN retransmission) — the LB observes the
//    client's SYN and handshake ACK, the classic proxy-RTT special case;
//  * reliable in-order delivery with cumulative, piggybacked ACKs;
//  * a fixed flow-control window (min of cwnd and the peer's advertised
//    window) — the "quota" whose exhaustion creates inter-batch pauses;
//  * optional delayed ACKs and packet pacing (§5 timing violations);
//  * RTT measurement via the timestamp option (ground truth T_client);
//  * graceful FIN teardown, RST abort, and TIME_WAIT.
//
// Not modelled (documented simplifications): congestion control, SACK,
// window scaling as a negotiated option (windows are plain 32-bit byte
// counts), Nagle (memcached-style apps disable it), and simultaneous open.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/simulator.h"
#include "tcp/config.h"
#include "util/hotpath.h"
#include "tcp/recv_buffer.h"
#include "tcp/send_buffer.h"
#include "util/shard.h"

namespace inband {

class AuditScope;
class StateDigest;
class TcpStack;

enum class TcpState {
  kClosed,
  kSynSent,
  kSynRcvd,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kLastAck,
  kClosing,
  kTimeWait,
};

const char* tcp_state_name(TcpState s);

INBAND_SHARD_LOCAL(shard)
class TcpConnection {
 public:
  // Application callbacks. Set before open()/first packet; any may be null.
  struct Callbacks {
    std::function<void(TcpConnection&)> on_established;
    // One application message delivered in order.
    std::function<void(TcpConnection&, const PayloadRef&)> on_message;
    // In-order payload bytes delivered (fires alongside on_message).
    std::function<void(TcpConnection&, std::uint64_t)> on_data;
    // Peer sent FIN (half-close); local side may still send.
    std::function<void(TcpConnection&)> on_peer_close;
    // Connection fully terminated (graceful or reset). Last callback; the
    // connection object is reaped right after it returns.
    std::function<void(TcpConnection&, bool reset)> on_closed;
    // Sender-side RTT sample from the timestamp option.
    std::function<void(TcpConnection&, SimTime rtt)> on_rtt_sample;
  };

  TcpConnection(TcpStack& stack, FlowKey key_local_view, TcpConfig config,
                std::uint32_t isn, bool active_open);
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  Callbacks& callbacks() { return cb_; }

  // Active open: transmits the SYN. Call once, after setting callbacks.
  void open();

  // Queues one application message of `wire_bytes` for transmission.
  void send_message(PayloadRef payload, std::uint32_t wire_bytes);

  // Queues `n` bulk bytes (no message boundary).
  void send_bytes(std::uint64_t n);

  // Graceful close: FIN after all queued data is sent.
  void close();

  // Hard abort: sends RST and tears down immediately.
  void abort();

  INBAND_HOT void on_packet(const Packet& pkt);

  // --- Introspection (tests, apps, telemetry) ---
  TcpState state() const { return state_; }
  // True when the application may still queue data (established-ish and no
  // local close() issued yet).
  bool can_send() const {
    return !close_requested_ && (state_ == TcpState::kEstablished ||
                                 state_ == TcpState::kCloseWait);
  }
  const FlowKey& key() const { return key_; }  // {local, remote}
  const Endpoint& local() const { return key_.src; }
  const Endpoint& remote() const { return key_.dst; }
  const TcpConfig& config() const { return config_; }
  std::uint64_t bytes_in_flight() const { return snd_nxt_ - snd_una_; }
  std::uint64_t bytes_queued() const { return send_buf_.end() - snd_nxt_; }
  std::uint64_t snd_una() const { return snd_una_; }
  std::uint64_t snd_nxt() const { return snd_nxt_; }
  std::uint64_t rcv_nxt() const { return recv_buf_.rcv_nxt(); }
  std::uint64_t effective_window() const;
  SimTime srtt() const { return srtt_; }
  SimTime rto() const { return rto_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t segments_sent() const { return segments_sent_; }
  std::uint64_t segments_received() const { return segments_received_; }

  // Invariant audit: sequence-number ordering (snd_una <= snd_nxt <= queued
  // end), window/FIN bookkeeping, and RTT estimator sanity.
  void audit_invariants(AuditScope& scope) const;

  // Folds the connection's full transport state into a determinism digest.
  void digest_state(StateDigest& digest) const;

 private:
  friend class TcpStack;

  Simulator& sim();

  // Acquires a pooled buffer and fills the TCP header in place.
  INBAND_HOT PacketRef make_packet(std::uint8_t flags,
                                   std::uint64_t seq_offset,
                                   std::uint32_t payload_len);
  // Hands a segment to the stack — immediately, or into the open burst
  // batch when try_send() is accumulating one.
  INBAND_HOT void emit(PacketRef pkt);
  std::uint32_t advertised_window() const;

  INBAND_HOT void try_send();
  void arm_pace_timer();  // fires try_send() at next_pace_
  void send_data_segment(std::uint64_t offset, std::uint32_t len,
                         bool retransmission);
  bool maybe_send_fin();
  void send_ack_now();
  void schedule_ack(bool immediate);
  void cancel_delack();

  void handle_ack(const Packet& pkt);
  void handle_data(const Packet& pkt);
  void process_fin_if_reached();

  // The retransmit timer is a deadline, re-checked when its event fires
  // (DESIGN §10.4). Arming moves the deadline and pushes an event only when
  // none is pending at or before it; disarming clears the deadline.
  void arm_retx();
  void disarm_retx() { retx_deadline_ = kNoTime; }
  // Disarms and drops the pending check, whose callback captures `this`.
  void cancel_retx_check();
  void schedule_retx_check();  // at retx_deadline_
  void on_retx_check();
  void on_retx_timeout();
  void update_rtt(SimTime sample);

  void enter_time_wait();
  void teardown(bool reset_seen);

  TcpStack& stack_;
  FlowKey key_;  // local view: src == local endpoint
  TcpConfig config_;
  Callbacks cb_;
  TcpState state_ = TcpState::kClosed;

  // Send side (absolute stream offsets; 0 == ISN).
  std::uint32_t isn_;
  SendBuffer send_buf_;
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  std::uint64_t peer_rwnd_ = 0;
  bool close_requested_ = false;
  bool fin_sent_ = false;
  std::uint64_t fin_offset_ = 0;  // valid once fin_sent_

  // Receive side.
  std::uint32_t irs_ = 0;
  RecvBuffer recv_buf_;
  bool peer_fin_seen_ = false;
  std::uint64_t peer_fin_offset_ = 0;  // stream offset of the FIN itself
  bool peer_fin_processed_ = false;

  // Timestamp option state.
  SimTime ts_recent_ = kNoTime;

  // Non-null only while try_send() is accumulating an unpaced burst; emit()
  // then appends instead of outputting one segment at a time.
  PacketBatch* open_batch_ = nullptr;

  // Timers. While retx_deadline_ is set, a retx check event is pending at
  // retx_check_at_ <= retx_deadline_; a disarmed timer may leave one pending.
  SimTime retx_deadline_ = kNoTime;
  EventId retx_timer_ = kInvalidEventId;
  SimTime retx_check_at_ = kNoTime;
  SimTime rto_;
  SimTime srtt_ = 0;
  SimTime rttvar_ = 0;
  int retx_attempts_ = 0;
  EventId delack_timer_ = kInvalidEventId;
  int unacked_segments_ = 0;
  EventId time_wait_timer_ = kInvalidEventId;
  EventId pace_timer_ = kInvalidEventId;
  SimTime next_pace_ = 0;

  // Stats.
  std::uint64_t retransmits_ = 0;
  std::uint64_t segments_sent_ = 0;
  std::uint64_t segments_received_ = 0;
};

}  // namespace inband
