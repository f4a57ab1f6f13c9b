#include "net/packet_pool.h"

namespace inband {

PacketPool::~PacketPool() {
  State& s = *state_;
  if (s.stats.outstanding == 0) {
    delete state_;
  } else {
    // Refs still live (e.g. delivery events pending when a scenario tears
    // down). The last one to release frees the state — slots stay valid
    // until then.
    s.orphaned = true;
  }
  state_ = nullptr;
}

PacketPool::Stats PacketPool::stats() const { return state_->stats; }

void PacketRef::release() {
  state_->release(pkt_);
  state_ = nullptr;
  pkt_ = nullptr;
}

void PacketPool::State::grow() {
  chunks.push_back(std::make_unique<Packet[]>(kChunkPackets));
  Packet* chunk = chunks.back().get();
  free_list.reserve(stats.slots + kChunkPackets);
  // Newest slots go to the back of the LIFO free list, so the pool prefers
  // recently-released (cache-warm) buffers and the first chunk's slots keep
  // getting reused under steady load.
  for (std::uint32_t i = 0; i < kChunkPackets; ++i) {
    free_list.push_back(&chunk[kChunkPackets - 1 - i]);
  }
  stats.slots += kChunkPackets;
}

}  // namespace inband
