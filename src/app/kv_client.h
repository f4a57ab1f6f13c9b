// memtier-style workload generator.
//
// Mirrors the behaviour of memtier_benchmark the paper drives its evaluation
// with: C parallel TCP connections to the service VIP, each pipelining up to
// P outstanding requests, a GET/SET mix, and periodic connection churn —
// after `requests_per_conn` responses a connection closes and a fresh one is
// opened (new ephemeral port ⇒ new flow ⇒ the LB makes a fresh routing
// decision with whatever it has learned). Pipelining means each response
// re-opens quota for the next request: the next request is a
// causally-triggered transmission.
//
// Every completed request is reported to the recorder callback with its
// ground-truth end-to-end latency measured at the client.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "app/message.h"
#include "tcp/stack.h"
#include "util/assert.h"
#include "util/hotpath.h"
#include "util/rng.h"
#include "util/shard.h"

namespace inband {

struct KvClientConfig {
  Endpoint server;            // the VIP
  int connections = 4;
  int pipeline = 4;           // max outstanding requests per connection
  double get_ratio = 0.5;
  std::uint64_t keyspace = 10'000;  // keys drawn uniformly
  std::uint32_t value_len = 128;
  std::uint64_t requests_per_conn = 100;  // churn period; 0 => never reconnect
  SimTime think_time = 0;     // delay between response and next request
  std::uint64_t seed = 7;
};

// A client flow as a record stores it: the 4-tuple without `proto`, which is
// always TCP because KvClient speaks nothing else. It converts back to the
// full FlowKey, so hash_flow(rec.flow) equals hash_flow(conn.key()).
struct RecordedFlow {
  Ipv4 src_addr = 0;
  Ipv4 dst_addr = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;

  RecordedFlow() = default;
  explicit RecordedFlow(const FlowKey& f)
      : src_addr{f.src.addr},
        dst_addr{f.dst.addr},
        src_port{f.src.port},
        dst_port{f.dst.port} {
    INBAND_ASSERT(f.proto == IpProto::kTcp, "a record's proto is implicit");
  }

  // Implicit, so code written against FlowKey (hash_flow, comparisons)
  // reads a record's flow unchanged.
  operator FlowKey() const {
    return FlowKey{{src_addr, src_port}, {dst_addr, dst_port}, IpProto::kTcp};
  }
};

// One completed request, as observed at the client. One is kept per request
// for the whole run (about a million in a fig-3 run), so the layout is packed
// to 32 bytes (DESIGN.md §5).
struct RequestRecord {
  SimTime sent_at;
  SimTime latency;             // response received - request created
  RecordedFlow flow;           // the flow the request travelled on
  std::uint16_t conn_index;    // stable client-side connection slot
  KvOp op;
  bool hit;
};
static_assert(sizeof(RequestRecord) == 32, "one packed per-request record");

INBAND_SHARD_LOCAL(shard)
class KvClient {
 public:
  using Recorder = std::function<void(const RequestRecord&)>;

  KvClient(TcpHost& host, KvClientConfig config);
  KvClient(const KvClient&) = delete;
  KvClient& operator=(const KvClient&) = delete;

  void set_recorder(Recorder recorder) { recorder_ = std::move(recorder); }

  // Opens all connections and begins issuing requests.
  void start();

  // Stops issuing; closes connections gracefully and stops reconnecting.
  void stop();

  bool running() const { return running_; }

  // --- stats ---
  std::uint64_t requests_sent() const { return requests_sent_; }
  std::uint64_t responses_received() const { return responses_received_; }
  std::uint64_t connections_opened() const { return connections_opened_; }
  std::uint64_t connection_failures() const { return connection_failures_; }

  const KvClientConfig& config() const { return config_; }

 private:
  struct ConnSlot {
    TcpConnection* conn = nullptr;
    std::uint64_t issued = 0;       // requests issued on current connection
    std::uint64_t completed = 0;    // responses received on current connection
    int outstanding = 0;
    EventId think_timer = kInvalidEventId;
  };

  void open_connection(int slot);
  void fill_pipeline(int slot);
  INBAND_HOT void issue_request(int slot);
  INBAND_HOT void on_response(int slot, const KvMessage& resp);
  void on_conn_closed(int slot, bool reset);

  TcpHost& host_;
  KvClientConfig config_;
  Rng rng_;
  PayloadPool<KvMessage> msg_pool_;  // recycles request objects
  Recorder recorder_;
  std::vector<ConnSlot> slots_;
  bool running_ = false;
  std::uint64_t next_request_id_ = 1;

  std::uint64_t requests_sent_ = 0;
  std::uint64_t responses_received_ = 0;
  std::uint64_t connections_opened_ = 0;
  std::uint64_t connection_failures_ = 0;
};

}  // namespace inband
