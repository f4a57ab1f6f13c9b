// Freelist pool for fixed-type application payloads.
//
// `PayloadPool<T>::make(args...)` constructs a T in recycled storage and
// returns its first PayloadRef; when the last ref drops, the object is
// destroyed and its storage goes back on the freelist instead of to the
// heap. In the fig-3 rig the KV request and response objects were the last
// steady-state per-packet allocations; with a per-host pool each costs a
// freelist pop.
//
// Lifetime: pooled objects routinely outlive their pool's owner — a packet
// in flight holds its payload ref inside a pending simulator event, and the
// rig destroys hosts before the simulator. The freelist state therefore
// counts the objects it has handed out, like PacketPool::State: a pool
// destroyed with objects still out marks its state orphaned, and the last
// object to come back frees it.
//
// Shard-safety: the pool is a plain member object — no globals, no locks —
// so per-shard ownership falls out of per-shard host ownership. A copy of a
// pooled payload (clone_detached at the shard boundary) starts unpooled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "util/hotpath.h"
#include "util/shard.h"

namespace inband {

// Storage shared by a pool and the objects it has handed out.
INBAND_SHARD_LOCAL(owner)
struct PayloadPoolState {
  PayloadPoolState() = default;
  PayloadPoolState(const PayloadPoolState&) = delete;
  PayloadPoolState& operator=(const PayloadPoolState&) = delete;
  ~PayloadPoolState() {
    for (void* mem : free) ::operator delete(mem);
  }

  // Takes back the storage of a destroyed object.
  void put(void* mem) {
    // hotlint:allow(hot-growth): make() reserves room for every object
    free.push_back(mem);
    --outstanding;
    if (orphaned && outstanding == 0) {
      // hotlint:allow(hot-alloc): orphan teardown, once after the pool is gone
      delete this;
    }
  }

  std::vector<void*> free;        // storage of destroyed objects
  std::uint64_t outstanding = 0;  // objects handed out, not yet back
  bool orphaned = false;  // pool destroyed; the last object back frees this
};

template <typename T>
class PayloadPool;

// Base of the payload types a PayloadPool can recycle:
//   struct KvMessage final : PooledPayload<KvMessage> { ... };
// An object made by a pool goes back to it when its last ref drops; any
// other (a plain `new`, or a copy) is deleted.
template <typename T>
INBAND_SHARD_LOCAL(owner)
struct PooledPayload : AppPayload {
  PooledPayload() = default;
  PooledPayload(const PooledPayload&) noexcept : AppPayload{} {}  // unpooled
  PooledPayload& operator=(const PooledPayload&) noexcept { return *this; }

 protected:
  void recycle() const override {
    PayloadPoolState* pool = pool_;
    if (pool == nullptr) {
      AppPayload::recycle();
      return;
    }
    T* self = const_cast<T*>(static_cast<const T*>(this));
    self->~T();
    pool->put(self);
  }

 private:
  friend class PayloadPool<T>;
  PayloadPoolState* pool_ = nullptr;
};

template <typename T>
INBAND_SHARD_LOCAL(owner)
class PayloadPool {
  static_assert(std::is_base_of_v<PooledPayload<T>, T>,
                "pooled payload types derive from PooledPayload<T>");

 public:
  // The first reservation covers a rig host's messages in flight, so
  // steady state never regrows the freelist.
  PayloadPool() : state_{new PayloadPoolState} {
    state_->free.reserve(kFirstReserve);
  }
  PayloadPool(const PayloadPool&) = delete;
  PayloadPool& operator=(const PayloadPool&) = delete;
  ~PayloadPool() {
    if (state_->outstanding == 0) {
      delete state_;
    } else {
      state_->orphaned = true;  // the last object back frees the state
    }
  }

  // Pooled equivalent of make_payload<T>(args...).
  template <typename... Args>
  PayloadRef make(Args&&... args) {
    PayloadPoolState& s = *state_;
    void* mem = nullptr;
    if (!s.free.empty()) {
      mem = s.free.back();
      s.free.pop_back();
    } else {
      INBAND_COLD_OK("pool warming: one block per object up to high water");
      // The freelist is empty, so every object made so far is out; leave
      // room for all of them to come back without put() growing the list.
      const std::size_t made = s.outstanding + 1;
      if (s.free.capacity() < made) s.free.reserve(2 * made);
      mem = ::operator new(sizeof(T));
    }
    T* obj = ::new (mem) T(std::forward<Args>(args)...);
    static_cast<PooledPayload<T>*>(obj)->pool_ = state_;
    ++s.outstanding;
    return PayloadRef{obj};
  }

  std::size_t free_blocks() const { return state_->free.size(); }

 private:
  static constexpr std::size_t kFirstReserve = 256;
  PayloadPoolState* state_;
};

}  // namespace inband
