// Pooled packet buffers and fixed-capacity packet batches.
//
// The data plane's unit of work is a PacketBatch of PacketRef handles drawn
// from a slab PacketPool — BESS's PacketBatch/snb pool structure, recycled
// the way PR 4's event queue recycles callback slots. A Packet is ~140 bytes;
// moving it by value through every virtual send/deliver hop was the dominant
// memcpy of the simulated fabric. A PacketRef is two words: producers fill
// the pooled slot once, every later layer (network, fault interceptor, link,
// sink) passes the handle.
//
// Lifetime: slots never move (chunked slabs), and the pool's internal state
// is kept alive by outstanding refs. Delivery events holding PacketRefs may
// outlive the Network that owns the pool (ClusterRig destroys the simulator
// last); a ref released after the pool's destruction frees the orphaned
// state when the last one goes. net/payload_pool.h gives application
// payloads the same orphan-safe shape.
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "util/assert.h"
#include "util/hotpath.h"
#include "util/shard.h"

namespace inband {

class PacketRef;

// Slab pool of Packet slots. Owned by the Network fabric: pooled buffers are
// channel state, handed to a shard when a batch is delivered and returned to
// the channel when the refs die (see DESIGN.md on the shardlint partition).
INBAND_SHARD_CHANNEL
class PacketPool {
 public:
  static constexpr std::uint32_t kChunkPackets = 256;

  struct Stats {
    std::uint64_t acquired = 0;   // total acquire() calls
    std::uint64_t released = 0;   // refs returned to the free list
    std::uint64_t slots = 0;      // slots ever created (capacity)
    std::uint64_t outstanding = 0;
    std::uint64_t high_water = 0;  // max simultaneously outstanding
  };

  PacketPool() : state_{new State} {}
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;
  ~PacketPool();

  INBAND_HOT PacketRef acquire();

  Stats stats() const;

 private:
  friend class PacketRef;

  // Channel state like the pool itself: refs from any shard release into it.
  INBAND_SHARD_CHANNEL
  struct State {
    std::vector<std::unique_ptr<Packet[]>> chunks;
    std::vector<Packet*> free_list;
    Stats stats;
    bool orphaned = false;  // pool destroyed; last ref deletes the state

    void grow();

    INBAND_HOT void release(Packet* pkt) {
      pkt->msgs.clear();  // drop payload refs at release, not at reuse
      // hotlint:allow(hot-growth): capacity reserved in grow(), never exceeded
      free_list.push_back(pkt);
      ++stats.released;
      --stats.outstanding;
      if (orphaned && stats.outstanding == 0) {
        // hotlint:allow(hot-alloc): orphan teardown, once at pool destruction
        delete this;
      }
    }
  };

  State* state_;
};

// Move-only handle to one pooled Packet slot. Releasing the handle (reset,
// destruction) recycles the slot.
INBAND_SHARD_LOCAL(owner)
class PacketRef {
 public:
  PacketRef() = default;
  PacketRef(PacketRef&& other) noexcept
      : state_{other.state_}, pkt_{other.pkt_} {
    other.state_ = nullptr;
    other.pkt_ = nullptr;
  }
  PacketRef& operator=(PacketRef&& other) noexcept {
    if (this != &other) {
      reset();
      state_ = other.state_;
      pkt_ = other.pkt_;
      other.state_ = nullptr;
      other.pkt_ = nullptr;
    }
    return *this;
  }
  PacketRef(const PacketRef&) = delete;
  PacketRef& operator=(const PacketRef&) = delete;
  ~PacketRef() { reset(); }

  explicit operator bool() const { return pkt_ != nullptr; }
  Packet& operator*() const {
    INBAND_DCHECK(pkt_ != nullptr);
    return *pkt_;
  }
  Packet* operator->() const {
    INBAND_DCHECK(pkt_ != nullptr);
    return pkt_;
  }

  // Most handles die moved-from, so the null test stays inline and the
  // slot release does not.
  INBAND_HOT void reset() {
    if (pkt_ != nullptr) release();
  }

 private:
  friend class PacketPool;
  PacketRef(PacketPool::State* state, Packet* pkt)
      : state_{state}, pkt_{pkt} {}

  // Returns the slot to its pool and empties the handle.
  void release();

  PacketPool::State* state_ = nullptr;
  Packet* pkt_ = nullptr;
};

inline PacketRef PacketPool::acquire() {
  State& s = *state_;
  if (s.free_list.empty()) {
    INBAND_COLD_OK("slab growth: amortized over the pool's lifetime");
    s.grow();
  }
  Packet* pkt = s.free_list.back();
  s.free_list.pop_back();
  INBAND_DCHECK(pkt->msgs.empty());  // emptied at release
  static_cast<PacketHeader&>(*pkt) = PacketHeader{};
  ++s.stats.acquired;
  ++s.stats.outstanding;
  if (s.stats.outstanding > s.stats.high_water) {
    s.stats.high_water = s.stats.outstanding;
  }
  return PacketRef{state_, pkt};
}

// Fixed-capacity batch of PacketRefs — the unit handed across the sim/net
// boundary. Construction writes one word (the size); ref storage is raw and
// only [0, size) slots are live, so building a singleton batch on the
// delivery path costs no 32-slot initialization.
INBAND_SHARD_LOCAL(owner)
class PacketBatch {
 public:
  static constexpr std::uint32_t kCapacity = 32;

  PacketBatch() = default;
  PacketBatch(PacketBatch&& other) noexcept {
    for (std::uint32_t i = 0; i < other.size_; ++i) {
      new (slot(i)) PacketRef{std::move(other[i])};
    }
    size_ = other.size_;
    other.destroy_all();
  }
  PacketBatch& operator=(PacketBatch&& other) noexcept {
    if (this != &other) {
      clear();
      for (std::uint32_t i = 0; i < other.size_; ++i) {
        new (slot(i)) PacketRef{std::move(other[i])};
      }
      size_ = other.size_;
      other.destroy_all();
    }
    return *this;
  }
  PacketBatch(const PacketBatch&) = delete;
  PacketBatch& operator=(const PacketBatch&) = delete;
  ~PacketBatch() { destroy_all(); }

  std::uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == kCapacity; }

  INBAND_HOT void push(PacketRef&& ref) {
    INBAND_DCHECK(size_ < kCapacity);
    new (slot(size_)) PacketRef{std::move(ref)};
    ++size_;
  }

  PacketRef& operator[](std::uint32_t i) {
    INBAND_DCHECK(i < size_);
    return *std::launder(reinterpret_cast<PacketRef*>(slot(i)));
  }
  const PacketRef& operator[](std::uint32_t i) const {
    INBAND_DCHECK(i < size_);
    return *std::launder(reinterpret_cast<const PacketRef*>(slot(i)));
  }

  // Moves element i out (its slot stays, empty, until clear()).
  INBAND_HOT PacketRef take(std::uint32_t i) { return std::move((*this)[i]); }

  // Releases every remaining ref and empties the batch.
  void clear() { destroy_all(); }

 private:
  unsigned char* slot(std::uint32_t i) {
    return storage_ + i * sizeof(PacketRef);
  }
  const unsigned char* slot(std::uint32_t i) const {
    return storage_ + i * sizeof(PacketRef);
  }
  void destroy_all() {
    for (std::uint32_t i = 0; i < size_; ++i) (*this)[i].~PacketRef();
    size_ = 0;
  }

  std::uint32_t size_ = 0;
  alignas(PacketRef) unsigned char storage_[kCapacity * sizeof(PacketRef)];
};

}  // namespace inband
