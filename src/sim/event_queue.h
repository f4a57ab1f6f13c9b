// Cancellable discrete-event queue, allocation-free in steady state.
//
// Events at equal timestamps pop in insertion (FIFO) order — a property the
// TCP and LB models rely on for determinism. Cancellation is O(1): the
// callback slot is released and the pending entry becomes a tombstone skipped
// at pop time.
//
// Storage design (see DESIGN.md §10): two structures replace the former
// std::function + unordered_map<EventId, handler> + binary-heap trio, which
// paid one heap allocation plus a hash insert/erase per scheduled event and
// an O(log n) serial pointer chase per pop.
//
// 1. A slab-allocated event pool for the callbacks:
//  * Each event occupies a fixed-size pool slot whose EventCallback member
//    stores the erased callable inline (small-buffer optimization) for
//    captures up to EventCallback::kInlineBytes; only oversized callables
//    fall back to a single heap block.
//  * Slots are recycled through an intrusive free list, so a pop→push steady
//    state touches no allocator at all. The pool grows in fixed-size chunks
//    and slots never move, so callbacks are constructed and invoked in place.
//  * Liveness is a 32-bit generation counter per slot: an EventId encodes
//    (slot, generation), freeing a slot bumps its generation, and a pending
//    entry whose recorded generation no longer matches its slot is dead —
//    one array load where the old design did a hash lookup. A slot whose
//    generation counter would wrap is retired instead of reused, so stale
//    handles can never alias a newer event (the ABA guard; exercised by the
//    wraparound test via EventQueueTestPeer).
//
// 2. A hierarchical timing wheel for the pending set (the classic
//    discrete-event answer to the binary heap's O(log n) pops):
//  * Two rings of 64 buckets cover the near future at widths of 2^6 and
//    2^12 ticks; events beyond the 2^18-tick horizon wait in a 4-ary
//    branchless min-heap keyed by a packed (time, seq) 128-bit key.
//  * push() appends to the right ring slot in O(1) (the level is picked by
//    XOR-ing the event time with the wheel cursor, as in kernel timer
//    wheels). A ring slot is sorted by (time, seq) once, when the cursor
//    reaches it, so ordering costs O(b log b) per slot instead of O(log n)
//    per event; pops then consume the sorted slot in place.
//  * The pop order is the strict total order on (time, seq) — seq is the
//    unique monotonic push counter — so FIFO-among-ties holds and the pop
//    sequence (and therefore every digest) is bit-identical to what the
//    single-heap implementations produced.
#pragma once

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
  EventQueue();
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
    const std::uint64_t seq = next_seq_++;
    place(WheelEntry{make_key(t, seq), slot, s.gen});
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
    WheelEntry* head = front_entry();
    INBAND_ASSERT(head != nullptr, "fire_next() on empty event queue");
    const SimTime t = key_time(head->key);
    const std::uint32_t slot = head->slot;
    Slot& s = slot_ref(slot);
    INBAND_DCHECK(s.gen == head->gen && s.callback);
    ++pos_;  // consume before the callback runs: it may push into this bucket
    --live_;
    INBAND_DCHECK(last_popped_ == kNoTime || t >= last_popped_,
                  "event queue popped backwards in time");
    last_popped_ = t;
    retire_handle(s);  // the firing event's own id goes dead
    firing_slot_ = slot;  // occupied but no longer live, for the auditor
    pre(t);
    s.callback();  // may push/cancel freely; `head` may dangle from here on
    s.callback.reset();
    firing_slot_ = kNullSlot;
    recycle_slot(slot, s);
    return t;
  }

  std::uint64_t total_pushed() const { return next_seq_ - 1; }

  // Timestamp of the most recently popped event; kNoTime before any pop.
  SimTime last_popped() const { return last_popped_; }

  // Invariant audit: pool/live bookkeeping agrees and the next live event
  // is not earlier than the last popped one (time monotonicity). Non-const
  // because inspecting the head may compact tombstones.
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
    EventCallback callback;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNullSlot;
  };
  // The inline buffer, its vtable pointer and the free-list words: slab
  // memory scales with the pool's high-water, so keep a slot this small.
  static_assert(sizeof(Slot) <= 80, "one slot: callback + gen + free link");

  // Sort key for the pending order: ((t << 64) | seq) ascending is exactly
  // the (time, then push order) total order — seq is unique, so there are no
  // ties and the pop sequence is independent of how entries are stored.
  // Requires t >= 0, asserted in push().
  __extension__ typedef unsigned __int128 Key;

  struct WheelEntry {
    Key key;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  static Key make_key(SimTime t, std::uint64_t seq) {
    return (static_cast<Key>(static_cast<std::uint64_t>(t)) << 64) | seq;
  }
  static SimTime key_time(Key k) {
    return static_cast<SimTime>(static_cast<std::uint64_t>(k >> 64));
  }

  // --- Timing-wheel geometry. Each level's 64 buckets span the next 6 bits
  // of the event time; anything beyond the 2^18-tick horizon waits in the
  // far heap. Two levels (not the kernel's four+) because the far heap is a
  // single structure whose capacity high-water is reached almost
  // immediately, whereas every ring bucket is first touched only when the
  // cursor first enters its time range — more rings would push first-touch
  // growth arbitrarily late into a run.
  static constexpr std::uint32_t kWheelBits = 6;
  static constexpr std::uint32_t kWheelSlots = 1u << kWheelBits;  // 64
  static constexpr std::uint64_t kWheelMask = kWheelSlots - 1;
  static constexpr int kWheelLevels = 2;
  static constexpr std::uint32_t kL0Shift = 6;
  static constexpr std::uint32_t kL1Shift = 12;
  static constexpr std::uint32_t kFarShift = 18;
  // Buckets are first reached only when the cursor enters their time range,
  // so without an up-front reserve the first-touch growth of each vector
  // would surface as rare allocations arbitrarily late in a run. Reserved in
  // the constructor; sized above the worst per-bucket coincidence the rig
  // workloads produce (occupancy spikes past 16 were observed as mid-run
  // capacity doublings under the zero-alloc gate), because a bucket's first
  // growth past the reserve can happen arbitrarily late. 128 buckets at
  // 64 entries of 32 bytes is 256 KiB per queue.
  static constexpr std::size_t kBucketReserve = 64;
  static constexpr std::size_t kFarReserve = 64;

  // Files a pending entry by its distance from the wheel cursor: the level
  // is the highest base-64 digit in which the event time differs from the
  // cursor (the XOR trick from kernel timer wheels). O(1); bucket vectors
  // stay unsorted until the cursor reaches them.
  void place(const WheelEntry& e) {
    const std::uint64_t t = static_cast<std::uint64_t>(key_time(e.key));
    const std::uint64_t w = static_cast<std::uint64_t>(wtime_);
    if ((t >> kL0Shift) <= (w >> kL0Shift)) {
      // At or before the active bucket (e.g. scheduling at the current
      // time): merge into its sorted, partially consumed remainder.
      insert_active(e);
      return;
    }
    const std::uint64_t x = t ^ w;
    if (x < (1ull << kL1Shift)) {
      ring_append(0, (t >> kL0Shift) & kWheelMask, e);
    } else if (x < (1ull << kFarShift)) {
      ring_append(1, (t >> kL1Shift) & kWheelMask, e);
    } else {
      far_push(e);
    }
  }

  void ring_append(int level, std::uint64_t bucket, const WheelEntry& e) {
    // hotlint:allow(hot-growth): buckets reserve kBucketReserve in the ctor
    rings_[level][bucket].push_back(e);
    occ_[level] |= 1ull << bucket;
  }

  std::vector<WheelEntry>& active_bucket() {
    return rings_[0][(static_cast<std::uint64_t>(wtime_) >> kL0Shift) &
                     kWheelMask];
  }

  // Ordered insert into the active bucket's unconsumed tail. Rare (only
  // events landing at or before the cursor's own bucket) and cheap: buckets
  // hold a handful of entries.
  void insert_active(const WheelEntry& e) {
    std::vector<WheelEntry>& v = active_bucket();
    std::size_t lo = pos_;
    std::size_t hi = v.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (v[mid].key < e.key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    // hotlint:allow(hot-growth): allocates only past the ctor's reservation
    v.insert(v.begin() + static_cast<std::ptrdiff_t>(lo), e);
  }

  // Earliest live pending entry (tombstones skipped), or nullptr when the
  // queue holds no live events. The fast path — a live head in the active
  // bucket — stays inline; bucket advance/cascade/far drain is out of line.
  WheelEntry* front_entry() {
    std::vector<WheelEntry>& v = active_bucket();
    while (pos_ < v.size()) {
      WheelEntry& e = v[pos_];
      if (slot_ref(e.slot).gen == e.gen) return &e;
      ++pos_;  // cancelled while queued: tombstone
    }
    return advance_cursor();
  }

  WheelEntry* advance_cursor();            // walks buckets/levels/far heap
  void cascade(std::vector<WheelEntry>& bucket);  // re-files one level down

  // Far-horizon overflow: a 4-ary min-heap in parallel (keys, payload)
  // arrays. Pops use a branchless min-of-4 tournament over the four
  // adjacent children; payload packs (slot << 32 | gen).
  void far_push(const WheelEntry& e) {
    std::size_t i = far_keys_.size();
    // hotlint:allow(hot-growth): far_keys_ reserves kFarReserve in the ctor
    far_keys_.emplace_back();  // hole; filled on the way down
    // hotlint:allow(hot-growth): far_payload_ reserves kFarReserve in the ctor
    far_payload_.emplace_back();
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (far_keys_[parent] < e.key) break;
      far_keys_[i] = far_keys_[parent];
      far_payload_[i] = far_payload_[parent];
      i = parent;
    }
    far_keys_[i] = e.key;
    far_payload_[i] =
        static_cast<std::uint64_t>(e.slot) << 32 | e.gen;
  }
  WheelEntry far_pop();

  // Rebuilds the far heap without its tombstones; see cancel() for the
  // trigger policy. Keeps the (time, seq) pop order bit-identical.
  void compact_far();

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
      Slot& s = slot_ref(index);
      free_head_ = s.next_free;
      s.next_free = kNullSlot;
      return index;
    }
    return alloc_slot_slow();
  }
  std::uint32_t alloc_slot_slow();  // grows the slab by one chunk

  void retire_handle(Slot& s) {
    // Bumping the generation kills every outstanding handle and heap entry
    // for this slot's previous occupancy. kMaxGen itself is never issued
    // (the slot is parked in recycle_slot), so a matching generation always
    // means a live event.
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
    s.next_free = free_head_;
    free_head_ = index;
  }

  // Pending set (see file comment): three 64-bucket rings over the near
  // future plus the far-horizon heap. wtime_ is the start of the active
  // level-0 bucket; pos_ is how much of that (sorted) bucket has popped.
  std::vector<WheelEntry> rings_[kWheelLevels][kWheelSlots];
  std::uint64_t occ_[kWheelLevels] = {0, 0};  // nonempty-bucket bitmaps
  std::vector<Key> far_keys_;
  std::vector<std::uint64_t> far_payload_;
  SimTime wtime_ = 0;
  std::size_t pos_ = 0;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;     // slots ever handed out (chunk frontier)
  std::uint32_t free_head_ = kNullSlot;
  // Slot whose callback fire_next() is currently invoking in place: already
  // decommissioned (not live, handle dead) but still occupying its slot, so
  // an audit running inside the callback must expect one extra occupant.
  std::uint32_t firing_slot_ = kNullSlot;
  std::uint64_t retired_slots_ = 0;  // permanently parked by the gen guard
  std::uint64_t far_cancels_ = 0;    // cancels since the last far compaction
  std::uint64_t next_seq_ = 1;       // monotonic push counter (never reused)
  std::size_t live_ = 0;
  SimTime last_popped_ = kNoTime;
};

}  // namespace inband
