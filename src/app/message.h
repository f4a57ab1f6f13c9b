// Key-value wire protocol (memcached-flavoured).
//
// Requests and responses are KvMessage payloads carried through the TCP
// model. Wire sizes approximate memcached's text protocol: a fixed header
// plus the value bytes for SETs and GET hits. The response echoes the
// request id and creation timestamp so the client can compute end-to-end
// latency without a lookup table.
#pragma once

#include <cstdint>

#include "net/packet.h"
#include "net/payload_pool.h"
#include "util/time.h"

namespace inband {

enum class KvOp : std::uint8_t { kGet, kSet };
enum class KvKind : std::uint8_t { kRequest, kResponse };

struct KvMessage final : PooledPayload<KvMessage> {
  KvKind kind = KvKind::kRequest;
  KvOp op = KvOp::kGet;
  std::uint64_t id = 0;
  std::uint64_t key = 0;
  std::uint32_t value_len = 0;  // SET request / GET-hit response value bytes
  bool hit = false;             // GET response only
  SimTime created_at = kNoTime;  // stamped at the client on request creation

  // KV messages cross shard boundaries (remote clients in the sharded rig);
  // the clone is a plain heap copy, deliberately NOT pool-backed — the copy
  // is owned by the receiving shard, whose pools it does not belong to.
  PayloadRef clone_detached() const override {
    return make_payload<KvMessage>(*this);
  }
};

// Header sizes loosely modelled on memcached's text protocol framing.
inline constexpr std::uint32_t kKvRequestHeader = 40;
inline constexpr std::uint32_t kKvResponseHeader = 32;

std::uint32_t kv_request_wire_size(KvOp op, std::uint32_t value_len);
std::uint32_t kv_response_wire_size(const KvMessage& response);

// The response to `req` (store effects are applied by the server).
KvMessage make_kv_response(const KvMessage& req, bool hit,
                           std::uint32_t value_len);

}  // namespace inband
