// Cancellable discrete-event queue, allocation-free in steady state.
//
// Events at equal timestamps pop in insertion (FIFO) order — a property the
// TCP and LB models rely on for determinism. Cancellation is O(1): the event
// is unlinked from its pending list and its slot recycled at once.
//
// Storage design (see DESIGN.md §10): the callbacks and the pending set share
// one slab of event slots. It replaced the std::function +
// unordered_map<EventId, handler> + binary-heap trio, which paid one heap
// allocation plus a hash insert/erase per scheduled event and an O(log n)
// serial pointer chase per pop.
//
// 1. A slab-allocated event pool for the callbacks:
//  * Each event occupies a fixed-size pool slot whose EventCallback member
//    stores the erased callable inline (small-buffer optimization) for
//    captures up to EventCallback::kInlineBytes; only oversized callables
//    fall back to a single heap block.
//  * Slots are recycled through an intrusive free list, so a pop→push steady
//    state touches no allocator at all. The pool grows in fixed-size chunks
//    and slots never move, so callbacks are constructed and invoked in place.
//  * An EventId encodes (slot, 32-bit generation); retiring an event bumps
//    its slot's generation, so a stale handle is one array load away from
//    being rejected. A slot whose generation counter would wrap is retired
//    instead of reused, so stale handles can never alias a newer event (the
//    ABA guard; exercised by the wraparound test via EventQueueTestPeer).
//
// 2. A hashed hierarchical timing wheel (Varghese & Lauck) for the pending
//    set, threaded through the same slots:
//  * Six levels of 64 buckets, 6 bits of the event time each, over one-tick
//    level-0 buckets: a 2^36-tick (≈ 68 s) horizon. Events beyond it wait in
//    one overflow list until the wheel re-anchors there.
//  * Every bucket is an intrusive doubly-linked list through the slots' own
//    link words (a live event has exactly one pending entry), so buckets own
//    no memory: no per-bucket vectors, no reserve, no first-touch growth.
//    cancel() unlinks the slot in O(1), so nothing dead stays behind to be
//    skipped or compacted later.
//  * push() files an event in O(1) by the highest base-64 digit in which its
//    time differs from the wheel cursor (the XOR trick from kernel timer
//    wheels). When the active list runs dry, the cursor jumps to the
//    earliest time in the next occupied bucket and re-files that bucket
//    under it: the entries at that time become the active list, the rest
//    drop to lower levels. Pops take the active list's head.
//  * Every list is kept in push order (appends only; a bucket is re-filed
//    into lists that are all empty at that moment), and the active list
//    holds one time plus events pushed at or before it in order, so it is
//    in the strict (time, push order) total order without any sorting.
//    That makes FIFO-among-ties hold and keeps the pop sequence — and
//    therefore every digest — bit-identical to what the heap- and
//    sort-based queues before it produced.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assert.h"
#include "util/hotpath.h"
#include "util/shard.h"
#include "util/time.h"

namespace inband {

class AuditScope;
class StateDigest;

// Opaque handle for cancellation. Id 0 is never issued (slot indices are
// biased by one in the encoding, so the high word of a real id is nonzero).
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// Move-only type-erased nullary callable with a small-buffer optimization
// sized for the queue's per-packet and per-request payloads. Unlike
// std::function it never allocates for captures up to kInlineBytes and never
// copies the target.
INBAND_SHARD_LOCAL(owner)
class EventCallback {
 public:
  // Inline capture budget: the largest hot-path capture. That is
  // KvServer::start_processing's completion ([this, Pending]: a connection
  // pointer, a FlowKey and a PayloadRef, 48 bytes); Network::transmit_held's
  // Release (three pointers and a PacketRef) is 40 and Link's delivery 24.
  // Each of these sites, and every per-connection timer, static_asserts
  // fits_inline. Setup-time and fault-injection events may exceed the budget
  // and take the heap path.
  static constexpr std::size_t kInlineBytes = 48;

  EventCallback() = default;
  ~EventCallback() { reset(); }

  EventCallback(EventCallback&& other) noexcept { move_from(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  template <typename F>
  explicit EventCallback(F&& fn) {
    emplace(std::forward<F>(fn));
  }

  // Installs a new target, destroying any current one.
  template <typename F>
  void emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "EventCallback target must be callable as void()");
    reset();
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
      vtable_ = &kInlineVTable<Fn>;
    } else {
      INBAND_COLD_OK("target exceeds kInlineBytes; hot call sites keep their "
                     "callbacks inline (checked by the perf gate)");
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(fn)));
      vtable_ = &kHeapVTable<Fn>;
    }
  }

  void operator()() {
    INBAND_DCHECK(vtable_ != nullptr, "invoking empty EventCallback");
    vtable_->invoke(buf_);
  }

  explicit operator bool() const { return vtable_ != nullptr; }

  void reset() {
    if (vtable_ != nullptr) {
      vtable_->destroy(buf_);
      vtable_ = nullptr;
    }
  }

  // True when Fn is stored in place rather than behind a heap pointer.
  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

 private:
  struct VTable {
    void (*invoke)(void* storage);
    // Move-constructs dst's storage from src's and destroys src's.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static constexpr VTable kInlineVTable{
      [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); },
      [](void* dst, void* src) {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* p) { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); },
  };

  template <typename Fn>
  static constexpr VTable kHeapVTable{
      [](void* p) { (**std::launder(reinterpret_cast<Fn**>(p)))(); },
      [](void* dst, void* src) {
        ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
      },
      [](void* p) { delete *std::launder(reinterpret_cast<Fn**>(p)); },
  };

  void move_from(EventCallback& other) {
    vtable_ = other.vtable_;
    if (vtable_ != nullptr) {
      vtable_->relocate(buf_, other.buf_);
      other.vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const VTable* vtable_ = nullptr;
};

INBAND_SHARD_LOCAL(owner)
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  template <typename F>
  INBAND_HOT EventId push(SimTime t, F&& fn) {
    if constexpr (requires { fn == nullptr; }) {
      INBAND_ASSERT(!(fn == nullptr));
    }
    INBAND_ASSERT(t >= 0, "event time must be non-negative");
    const std::uint32_t slot = alloc_slot();
    Slot& s = slot_ref(slot);
    // hotlint:allow(hot-growth): emplace targets the slot's inline buffer
    s.callback.emplace(std::forward<F>(fn));
    s.t = t;
    ++next_seq_;
    const std::uint32_t list = list_for(t);
    if (list == kActive) {
      insert_active(slot, s);
    } else {
      append(list, slot, s);
    }
    ++live_;
    return make_id(slot, s.gen);
  }

  // Returns true if the event existed and had not yet fired.
  bool cancel(EventId id);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  // Timestamp of the next live event; kNoTime when empty.
  SimTime next_time();

  // Pops the next live event and runs its callback in its pool slot (no
  // move, no transient storage). `pre(t)` runs after the event is committed
  // but before the callback, so a simulator can advance its clock first. An
  // event cannot cancel() itself once it is firing. Returns the event's
  // time. The queue must not be empty.
  template <typename Pre>
  INBAND_HOT SimTime fire_next(Pre&& pre) {
    const std::uint32_t slot = front();
    INBAND_ASSERT(slot != kNullSlot, "fire_next() on empty event queue");
    Slot& s = slot_ref(slot);
    INBAND_DCHECK(s.callback);
    unlink(kActive, s);  // before the callback runs: it may push behind us
    const SimTime t = s.t;
    --live_;
    INBAND_DCHECK(last_popped_ == kNoTime || t >= last_popped_,
                  "event queue popped backwards in time");
    last_popped_ = t;
    retire_handle(s);  // the firing event's own id goes dead
    firing_slot_ = slot;  // occupied but no longer live, for the auditor
    pre(t);
    s.callback();  // may push/cancel freely
    s.callback.reset();
    firing_slot_ = kNullSlot;
    recycle_slot(slot, s);
    return t;
  }

  std::uint64_t total_pushed() const { return next_seq_ - 1; }

  // Timestamp of the most recently popped event; kNoTime before any pop.
  SimTime last_popped() const { return last_popped_; }

  // Invariant audit: pool/live bookkeeping agrees, every live event sits in
  // exactly the list the wheel geometry assigns it, and the next live event
  // is not earlier than the last popped one (time monotonicity). Non-const
  // because finding the next event may advance the wheel cursor.
  void audit_invariants(AuditScope& scope);

  // Folds scheduling state into a determinism digest (handlers themselves
  // are not hashable; identical push/pop/cancel sequences are what make two
  // runs equal). Non-const for the same reason as audit_invariants.
  void digest_state(StateDigest& digest);

 private:
  friend struct EventQueueTestPeer;

  static constexpr std::uint32_t kNullSlot = 0xffffffffu;
  static constexpr std::uint32_t kSlotsPerChunk = 256;
  // A slot reaching this generation is retired rather than recycled, so a
  // wrapped counter can never revalidate a stale handle.
  static constexpr std::uint32_t kMaxGen = 0xffffffffu;

  struct Slot {
    // [[no_unique_address]] lets the fields below live in the callback's
    // tail padding (its buffer is max_align_t-aligned): 80 bytes, not 96.
    [[no_unique_address]] EventCallback callback;
    SimTime t = 0;  // event time while pending
    std::uint32_t gen = 0;
    // Pending-list links. `next` is also the free-list link of a free slot.
    std::uint32_t next = kNullSlot;
    std::uint32_t prev = kNullSlot;
  };
  // Slab memory scales with the pool's high-water, so keep a slot this small.
  static_assert(sizeof(Slot) <= 80, "one slot: callback + time + gen + links");

  // --- Timing-wheel geometry: six levels of 64 buckets, each resolving the
  // next 6 bits of the event time; level-0 buckets are one tick wide.
  static constexpr std::uint32_t kLevelBits = 6;
  static constexpr std::uint32_t kWheelSlots = 1u << kLevelBits;  // 64
  static constexpr std::uint64_t kWheelMask = kWheelSlots - 1;
  static constexpr std::uint32_t kLevels = 6;
  static constexpr std::uint32_t kHorizonBits = kLevels * kLevelBits;  // 36

  // Pending lists by index: the active (time-ordered, popping) list, then the
  // wheel buckets level by level, then the overflow list.
  static constexpr std::uint32_t kActive = 0;
  static constexpr std::uint32_t kBuckets = kLevels * kWheelSlots;
  static constexpr std::uint32_t kOverflow = 1 + kBuckets;

  struct List {
    std::uint32_t head = kNullSlot;
    std::uint32_t tail = kNullSlot;
  };

  // The list a pending event at time t belongs in, given the cursor: the
  // active list at or before the cursor's time; otherwise the level of the
  // highest base-64 digit in which t differs from the cursor. An event's
  // list stays the same until the cursor reaches its bucket, which is when
  // advance_cursor() re-files it.
  std::uint32_t list_for(SimTime t) const {
    const std::uint64_t u = static_cast<std::uint64_t>(t);
    const std::uint64_t x = u ^ static_cast<std::uint64_t>(wtime_);
    if (t <= wtime_) return kActive;
    if ((x >> kHorizonBits) != 0) return kOverflow;
    const std::uint32_t level =
        (static_cast<std::uint32_t>(std::bit_width(x)) - 1) / kLevelBits;
    return 1 + level * kWheelSlots +
           static_cast<std::uint32_t>((u >> (level * kLevelBits)) & kWheelMask);
  }

  static bool is_bucket(std::uint32_t list) { return list - 1 < kBuckets; }
  std::uint64_t& occ_word(std::uint32_t list) {
    return occ_[(list - 1) / kWheelSlots];
  }
  static std::uint64_t occ_bit(std::uint32_t list) {
    return 1ull << ((list - 1) % kWheelSlots);
  }

  void append(std::uint32_t list, std::uint32_t index, Slot& s) {
    List& l = lists_[list];
    s.next = kNullSlot;
    s.prev = l.tail;
    (l.tail == kNullSlot ? l.head : slot_ref(l.tail).next) = index;
    l.tail = index;
    if (is_bucket(list)) occ_word(list) |= occ_bit(list);
  }

  void unlink(std::uint32_t list, const Slot& s) {
    List& l = lists_[list];
    (s.prev == kNullSlot ? l.head : slot_ref(s.prev).next) = s.next;
    (s.next == kNullSlot ? l.tail : slot_ref(s.next).prev) = s.prev;
    if (is_bucket(list) && l.head == kNullSlot) {
      occ_word(list) &= ~occ_bit(list);
    }
  }

  // Ordered insert into the active list, after every entry at or before t
  // (FIFO among ties). Events at the cursor's time go straight to the tail;
  // only an event behind the cursor (which next_time() may have moved past
  // the current time) scans back.
  void insert_active(std::uint32_t index, Slot& s) {
    List& l = lists_[kActive];
    std::uint32_t after = l.tail;
    while (after != kNullSlot && slot_ref(after).t > s.t) {
      after = slot_ref(after).prev;
    }
    s.prev = after;
    s.next = after == kNullSlot ? l.head : slot_ref(after).next;
    (after == kNullSlot ? l.head : slot_ref(after).next) = index;
    (s.next == kNullSlot ? l.tail : slot_ref(s.next).prev) = index;
  }

  // Earliest pending event's slot, or kNullSlot when the queue is empty. The
  // fast path — a non-empty active list — stays inline.
  std::uint32_t front() {
    const std::uint32_t head = lists_[kActive].head;
    return head != kNullSlot ? head : advance_cursor();
  }

  std::uint32_t advance_cursor();   // moves the cursor to the next event
  void refile(std::uint32_t list);  // re-files one list under the cursor

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(slot) + 1) << 32 | gen;
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>((id >> 32) - 1);
  }
  static std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }

  Slot& slot_ref(std::uint32_t index) {
    return chunks_[index / kSlotsPerChunk][index % kSlotsPerChunk];
  }
  const Slot& slot_ref(std::uint32_t index) const {
    return chunks_[index / kSlotsPerChunk][index % kSlotsPerChunk];
  }

  // The pool operations sit in the header so push()/fire_next() inline them;
  // out-of-line they cost a call per event on the hottest loop in the tree.
  std::uint32_t alloc_slot() {
    if (free_head_ != kNullSlot) {
      const std::uint32_t index = free_head_;
      free_head_ = slot_ref(index).next;
      return index;
    }
    return alloc_slot_slow();
  }
  std::uint32_t alloc_slot_slow();  // grows the slab by one chunk

  void retire_handle(Slot& s) {
    // Bumping the generation kills every outstanding handle for this slot's
    // previous occupancy. kMaxGen itself is never issued (the slot is parked
    // in recycle_slot), so a matching generation always means a live event.
    INBAND_ASSERT(s.gen < kMaxGen);
    ++s.gen;
  }

  void recycle_slot(std::uint32_t index, Slot& s) {
    if (s.gen == kMaxGen) {
      // Generation counter exhausted: park the slot forever instead of
      // letting a stale handle from 2^32 occupancies ago alias a fresh
      // event.
      ++retired_slots_;
      return;
    }
    s.next = free_head_;
    free_head_ = index;
  }

  // Pending set (see file comment). wtime_ is the wheel cursor: exactly the
  // events at or before it are in the active list. occ_ holds one
  // nonempty-bucket bitmap per level.
  List lists_[kOverflow + 1];
  std::uint64_t occ_[kLevels] = {};
  SimTime wtime_ = 0;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;     // slots ever handed out (chunk frontier)
  std::uint32_t free_head_ = kNullSlot;
  // Slot whose callback fire_next() is currently invoking in place: already
  // decommissioned (not live, handle dead) but still occupying its slot, so
  // an audit running inside the callback must expect one extra occupant.
  std::uint32_t firing_slot_ = kNullSlot;
  std::uint64_t retired_slots_ = 0;  // permanently parked by the gen guard
  std::uint64_t next_seq_ = 1;       // monotonic push counter (never reused)
  std::size_t live_ = 0;
  SimTime last_popped_ = kNoTime;
};

}  // namespace inband
