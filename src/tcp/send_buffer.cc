#include "tcp/send_buffer.h"

#include <cstddef>

#include "util/assert.h"

namespace inband {

void SendBuffer::append_message(PayloadRef payload, std::uint32_t wire_bytes) {
  INBAND_ASSERT(wire_bytes > 0, "empty message");
  end_ += wire_bytes;
  msgs_.push({end_, std::move(payload)});
}

MsgList SendBuffer::messages_in(std::uint64_t range_start,
                                std::uint64_t range_end) const {
  MsgList out;
  // msgs_ is sorted by end_offset; binary-search the first with
  // end_offset > range_start, then walk forward through the range.
  std::size_t lo = 0;
  std::size_t hi = msgs_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (msgs_[mid].end_offset <= range_start) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  for (; lo < msgs_.size() && msgs_[lo].end_offset <= range_end; ++lo) {
    out.push_msg(msgs_[lo]);
  }
  return out;
}

void SendBuffer::release_acked(std::uint64_t snd_una) {
  while (!msgs_.empty() && msgs_.front().end_offset <= snd_una) {
    msgs_.pop();
  }
}

}  // namespace inband
