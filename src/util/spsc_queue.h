// Unbounded single-producer / single-consumer queue with producer-side
// reclamation.
//
// The transport under the cross-shard channels in sim/parallel.h. Two
// properties drive the design, both dictated by the conservative-lookahead
// protocol rather than by raw throughput:
//
//  * Unbounded. A bounded ring would make push() block when full, and a
//    producer blocked on a consumer that is itself conservatively blocked on
//    the producer's horizon is a deadlock cycle. Capacity grows in chunks of
//    kChunkCap slots appended to a singly-linked list; steady state recycles
//    nothing across threads.
//
//  * Producer-side reclamation. Slots are destroyed (assigned T{}) by the
//    PRODUCER, after the consumer publishes how far it has read. The payload
//    types crossing shards hold shard-local resources (PayloadRefs whose
//    non-atomic counts, and the pools their last drop recycles into, belong
//    to the producing shard); destroying them on the consumer thread would
//    race. The consumer only ever reads a slot and bumps an atomic counter —
//    it never runs a destructor of a producer-owned value. Consumers that
//    need to keep data must deep-copy out of the slot (see
//    ShardChannel::take_detached).
//
// Memory ordering: the producer publishes a slot by storing the chunk's
// `filled` count with release after writing the slot; the consumer loads it
// with acquire before reading. Symmetrically the consumer publishes
// `consumed_` with release and the producer reclaims after an acquire load.
// No other synchronization exists — exactly one thread may call the producer
// methods and one (possibly different) thread the consumer methods.
#pragma once

#include <atomic>
#include <cstdint>

#include "util/assert.h"
#include "util/shard.h"

namespace inband {

template <typename T>
INBAND_SHARD_CHANNEL
class SpscQueue {
 public:
  static constexpr std::uint32_t kChunkCap = 64;

  SpscQueue() {
    Chunk* c = new Chunk;
    head_ = tail_ = reclaim_ = c;
  }
  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;
  ~SpscQueue() {
    // Single-threaded by the time a queue dies (the runner has joined).
    Chunk* c = reclaim_;
    while (c != nullptr) {
      Chunk* next = c->next.load(std::memory_order_relaxed);
      delete c;
      c = next;
    }
  }

  // --- producer side ---

  void push(T value) {
    Chunk* t = tail_;
    const std::uint32_t filled = t->filled.load(std::memory_order_relaxed);
    if (filled == kChunkCap) {
      // hotlint:allow(hot-alloc): one chunk per kChunkCap pushes, cross-shard trunk rate only
      Chunk* fresh = new Chunk;
      fresh->base = t->base + kChunkCap;
      tail_ = fresh;
      // Publish the link after the chunk is fully constructed.
      t->next.store(fresh, std::memory_order_release);
      t = fresh;
    }
    const std::uint32_t slot = t->filled.load(std::memory_order_relaxed);
    t->slots[slot] = std::move(value);
    t->filled.store(slot + 1, std::memory_order_release);
    ++pushed_;
  }

  // Destroys every slot the consumer has finished with and frees chunks that
  // are fully reclaimed. Producer thread only; call at any convenient rate
  // (the channel calls it on every horizon announcement).
  void reclaim() {
    const std::uint64_t consumed = consumed_.load(std::memory_order_acquire);
    while (reclaimed_ < consumed) {
      Chunk* c = reclaim_;
      const std::uint32_t i = static_cast<std::uint32_t>(reclaimed_ - c->base);
      if (i == kChunkCap) {
        Chunk* next = c->next.load(std::memory_order_relaxed);
        INBAND_ASSERT(next != nullptr, "reclaim ran past the chunk chain");
        reclaim_ = next;
        delete c;
        continue;
      }
      c->slots[i] = T{};  // producer-side destruction of the value
      ++reclaimed_;
    }
  }

  std::uint64_t pushed() const { return pushed_; }  // producer thread only

  // --- consumer side ---

  // Borrowed pointer to the next unconsumed value, or nullptr when none is
  // visible. Valid until consume(); the consumer must not destroy it.
  const T* peek() {
    Chunk* c = head_;
    const std::uint32_t i = static_cast<std::uint32_t>(next_read_ - c->base);
    if (i == kChunkCap) {
      Chunk* next = c->next.load(std::memory_order_acquire);
      if (next == nullptr) return nullptr;
      head_ = c = next;
      return peek();
    }
    if (i >= c->filled.load(std::memory_order_acquire)) return nullptr;
    return &c->slots[i];
  }

  // Marks the current peek()ed value consumed and publishes that fact to the
  // producer for reclamation. Must follow a successful peek().
  void consume() {
    ++next_read_;
    consumed_.store(next_read_, std::memory_order_release);
  }

  std::uint64_t consumed() const {  // either thread; approximate for producer
    return consumed_.load(std::memory_order_acquire);
  }

 private:
  struct Chunk {
    std::uint64_t base = 0;  // global index of slots[0]
    std::atomic<std::uint32_t> filled{0};
    std::atomic<Chunk*> next{nullptr};
    T slots[kChunkCap];
  };

  // Producer-owned.
  Chunk* tail_ = nullptr;    // chunk being filled
  Chunk* reclaim_ = nullptr; // oldest chunk with undestroyed slots
  std::uint64_t pushed_ = 0;
  std::uint64_t reclaimed_ = 0;

  // Consumer-owned.
  Chunk* head_ = nullptr;      // chunk being read
  std::uint64_t next_read_ = 0;

  // Consumer -> producer watermark.
  std::atomic<std::uint64_t> consumed_{0};
};

}  // namespace inband
