#include "app/message.h"

namespace inband {

std::uint32_t kv_request_wire_size(KvOp op, std::uint32_t value_len) {
  return op == KvOp::kSet ? kKvRequestHeader + value_len : kKvRequestHeader;
}

std::uint32_t kv_response_wire_size(const KvMessage& response) {
  if (response.op == KvOp::kGet && response.hit) {
    return kKvResponseHeader + response.value_len;
  }
  return kKvResponseHeader;
}

KvMessage make_kv_response(const KvMessage& req, bool hit,
                           std::uint32_t value_len) {
  KvMessage out;
  out.kind = KvKind::kResponse;
  out.op = req.op;
  out.id = req.id;
  out.key = req.key;
  out.hit = hit;
  out.value_len = value_len;
  out.created_at = req.created_at;
  return out;
}

}  // namespace inband
