#include "net/packet.h"

#include <sstream>

#include "util/assert.h"

namespace inband {

std::string format_flow(const FlowKey& f) {
  return format_endpoint(f.src) + ">" + format_endpoint(f.dst);
}

std::string format_packet(const Packet& p) {
  std::ostringstream os;
  os << format_flow(p.flow) << " [";
  if (p.has(tcpflag::kSyn)) os << 'S';
  if (p.has(tcpflag::kFin)) os << 'F';
  if (p.has(tcpflag::kRst)) os << 'R';
  if (p.has(tcpflag::kAck)) os << '.';
  if (p.has(tcpflag::kPsh)) os << 'P';
  os << "] seq=" << p.seq;
  if (p.has(tcpflag::kAck)) os << " ack=" << p.ack;
  os << " len=" << p.payload_len << " wnd=" << p.wnd;
  return os.str();
}

Packet detach_packet_copy(const Packet& src) {
  Packet out;
  static_cast<PacketHeader&>(out) = src;
  for (const MessageRef& m : src.msgs) {
    PayloadRef clone;
    if (m.payload) {
      clone = m.payload->clone_detached();
      INBAND_ASSERT(clone, "payload type cannot cross shards: "
                           "clone_detached() is not implemented");
    }
    out.msgs.push_msg(MessageRef{m.end_offset, std::move(clone)});
  }
  return out;
}

}  // namespace inband
