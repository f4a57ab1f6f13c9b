#include "sim/event_queue.h"

#include <algorithm>
#include <bit>

#include "check/invariant_auditor.h"
#include "check/state_digest.h"
#include "util/assert.h"

namespace inband {

namespace {

// First set bit at index >= from, or 64 when none.
inline unsigned next_bit(std::uint64_t bits, std::uint32_t from) {
  if (from >= 64) return 64;
  const std::uint64_t rest = bits >> from << from;
  return rest == 0 ? 64u : static_cast<unsigned>(std::countr_zero(rest));
}

}  // namespace

EventQueue::EventQueue() {
  for (auto& level : rings_) {
    for (auto& bucket : level) bucket.reserve(kBucketReserve);
  }
  far_keys_.reserve(kFarReserve);
  far_payload_.reserve(kFarReserve);
}

std::uint32_t EventQueue::alloc_slot_slow() {
  INBAND_COLD_OK("slab growth: one chunk per kSlotsPerChunk slots; steady "
                 "state recycles freed slots and never lands here");
  if (slot_count_ % kSlotsPerChunk == 0) {
    INBAND_ASSERT(slot_count_ < kNullSlot - kSlotsPerChunk,
                  "event pool exhausted");
    chunks_.push_back(std::make_unique<Slot[]>(kSlotsPerChunk));
  }
  return slot_count_++;
}

bool EventQueue::cancel(EventId id) {
  if (id == kInvalidEventId) return false;
  const std::uint32_t index = slot_of(id);
  if (index >= slot_count_) return false;
  Slot& s = slot_ref(index);
  if (s.gen != gen_of(id) || !s.callback) return false;
  s.callback.reset();
  retire_handle(s);  // the wheel entry is now a tombstone, skipped at pop
  recycle_slot(index, s);
  INBAND_ASSERT(live_ > 0);
  --live_;
  // A cancelled event resident in the far heap stays behind as a tombstone
  // that advance_cursor() only reclaims when its 2^18-tick window rotates in,
  // so cancel-heavy far-timer workloads would otherwise retain heap entries
  // unboundedly. Every far tombstone originates from a cancel (entries enter
  // the heap live and are re-filed only while live), so once the cancels
  // since the last sweep could account for half the heap, rebuild it without
  // the dead entries — amortized O(log n) per cancel, and it bounds the heap
  // at 2x its live occupancy plus the reserve (asserted in test_sim.cc).
  if (++far_cancels_ >= kFarReserve && 2 * far_cancels_ >= far_keys_.size()) {
    compact_far();
  }
  return true;
}

void EventQueue::compact_far() {
  far_cancels_ = 0;
  std::size_t out = 0;
  for (std::size_t i = 0; i < far_keys_.size(); ++i) {
    const std::uint64_t p = far_payload_[i];
    if (slot_ref(static_cast<std::uint32_t>(p >> 32)).gen !=
        static_cast<std::uint32_t>(p)) {
      continue;  // tombstone
    }
    far_keys_[out] = far_keys_[i];
    far_payload_[out] = p;
    ++out;
  }
  // hotlint:allow(hot-growth): shrinks to the live prefix; capacity retained across compactions
  far_keys_.resize(out);
  // hotlint:allow(hot-growth): shrinks to the live prefix; capacity retained across compactions
  far_payload_.resize(out);
  if (out < 2) return;
  // Floyd heapify, in place and allocation-free (this runs inside the
  // steady-state cancel path, which tests/test_alloc.cc holds to exactly
  // zero heap allocations): sift every internal node down, co-moving the
  // payloads. Keys are unique ((time, seq) with a never-reused seq) and
  // far_pop() always takes the minimum, so the pop sequence depends only
  // on the key *set* — any valid heap layout pops bit-identically.
  for (std::size_t node = ((out - 2) >> 2) + 1; node-- > 0;) {
    const Key k = far_keys_[node];
    const std::uint64_t p = far_payload_[node];
    std::size_t i = node;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= out) break;
      std::size_t best = first;
      const std::size_t last = first + 4 < out ? first + 4 : out;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (far_keys_[c] < far_keys_[best]) best = c;
      }
      if (k < far_keys_[best]) break;
      far_keys_[i] = far_keys_[best];
      far_payload_[i] = far_payload_[best];
      i = best;
    }
    far_keys_[i] = k;
    far_payload_[i] = p;
  }
}

// Slow path of front_entry(): the active bucket is drained, so move the
// cursor forward — next occupied level-0 bucket in this epoch, else cascade
// the next occupied bucket of a higher level down, else re-anchor at the far
// heap. Each step only ever jumps to a bucket that holds the globally
// earliest pending entries, so pops stay in (time, seq) order.
EventQueue::WheelEntry* EventQueue::advance_cursor() {
  for (;;) {
    {
      std::vector<WheelEntry>& v = active_bucket();
      while (pos_ < v.size()) {
        WheelEntry& e = v[pos_];
        if (slot_ref(e.slot).gen == e.gen) return &e;
        ++pos_;  // tombstone
      }
      v.clear();  // keeps capacity: steady state stays allocation-free
      pos_ = 0;
    }
    const std::uint64_t w = static_cast<std::uint64_t>(wtime_);

    // Level 0: jump to the next occupied bucket of the current 2^12 epoch
    // and sort it (the only per-event ordering work the wheel ever does).
    const std::uint32_t s0 =
        static_cast<std::uint32_t>((w >> kL0Shift) & kWheelMask);
    if (const unsigned b = next_bit(occ_[0], s0 + 1); b < kWheelSlots) {
      occ_[0] &= ~(1ull << b);
      wtime_ = static_cast<SimTime>((w & ~((1ull << kL1Shift) - 1)) |
                                    (static_cast<std::uint64_t>(b) << kL0Shift));
      std::vector<WheelEntry>& bucket = active_bucket();
      std::sort(bucket.begin(), bucket.end(),
                [](const WheelEntry& a, const WheelEntry& c) {
                  return a.key < c.key;
                });
      continue;
    }
    INBAND_DCHECK(occ_[0] == 0, "stale level-0 occupancy behind the cursor");

    // Level 1: cascade the next occupied bucket of the current 2^18 epoch
    // down into level 0.
    const std::uint32_t s1 =
        static_cast<std::uint32_t>((w >> kL1Shift) & kWheelMask);
    if (const unsigned b = next_bit(occ_[1], s1 + 1); b < kWheelSlots) {
      occ_[1] &= ~(1ull << b);
      wtime_ = static_cast<SimTime>((w & ~((1ull << kFarShift) - 1)) |
                                    (static_cast<std::uint64_t>(b) << kL1Shift));
      cascade(rings_[1][b]);
      continue;
    }
    INBAND_DCHECK(occ_[1] == 0, "stale level-1 occupancy behind the cursor");

    // Far horizon: re-anchor the wheel at the earliest far event and pull
    // everything inside the new 2^18-tick window down into the rings.
    if (far_keys_.empty()) return nullptr;  // queue truly empty
    const std::uint64_t anchor =
        static_cast<std::uint64_t>(key_time(far_keys_.front())) & ~kWheelMask;
    INBAND_DCHECK(static_cast<SimTime>(anchor) >= wtime_,
                  "wheel cursor would move backwards");
    wtime_ = static_cast<SimTime>(anchor);
    const std::uint64_t horizon = anchor | ((1ull << kFarShift) - 1);
    while (!far_keys_.empty() &&
           static_cast<std::uint64_t>(key_time(far_keys_.front())) <= horizon) {
      const WheelEntry e = far_pop();
      if (slot_ref(e.slot).gen != e.gen) continue;  // cancelled while far
      place(e);
    }
  }
}

// Re-files one exhausted higher-level bucket's entries a level down (or into
// the active bucket / far heap via place()); tombstones are dropped here
// instead of being copied along.
void EventQueue::cascade(std::vector<WheelEntry>& bucket) {
  for (const WheelEntry& e : bucket) {
    if (slot_ref(e.slot).gen != e.gen) continue;
    place(e);
  }
  bucket.clear();
}

EventQueue::WheelEntry EventQueue::far_pop() {
  const std::uint64_t top = far_payload_.front();
  const WheelEntry out{far_keys_.front(), static_cast<std::uint32_t>(top >> 32),
                       static_cast<std::uint32_t>(top)};
  const Key lk = far_keys_.back();
  const std::uint64_t lp = far_payload_.back();
  far_keys_.pop_back();
  far_payload_.pop_back();
  const std::size_t n = far_keys_.size();
  if (n != 0) {
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      std::size_t best;
      if (first + 3 < n) {
        // Branchless min-of-4 tournament over the adjacent children.
        const std::size_t a =
            first + static_cast<std::size_t>(far_keys_[first + 1] <
                                             far_keys_[first]);
        const std::size_t c =
            first + 2 + static_cast<std::size_t>(far_keys_[first + 3] <
                                                 far_keys_[first + 2]);
        best = far_keys_[c] < far_keys_[a] ? c : a;
      } else {
        if (first >= n) break;
        best = first;
        for (std::size_t c = first + 1; c < n; ++c) {
          if (far_keys_[c] < far_keys_[best]) best = c;
        }
      }
      if (lk < far_keys_[best]) break;
      far_keys_[i] = far_keys_[best];
      far_payload_[i] = far_payload_[best];
      i = best;
    }
    far_keys_[i] = lk;
    far_payload_[i] = lp;
  }
  return out;
}

SimTime EventQueue::next_time() {
  WheelEntry* head = front_entry();
  return head == nullptr ? kNoTime : key_time(head->key);
}

void EventQueue::audit_invariants(AuditScope& scope) {
  std::size_t occupied = 0;
  std::uint64_t free_count = 0;
  for (std::uint32_t i = 0; i < slot_count_; ++i) {
    if (slot_ref(i).callback) ++occupied;
  }
  for (std::uint32_t i = free_head_; i != kNullSlot;
       i = slot_ref(i).next_free) {
    ++free_count;
  }
  // An audit can run from inside a firing callback (the rig's periodic
  // audit is itself an event); that callback's slot is occupied but no
  // longer counted live.
  const std::size_t in_flight =
      firing_slot_ != kNullSlot && slot_ref(firing_slot_).callback ? 1 : 0;
  scope.check(occupied == live_ + in_flight, "live-count-consistent",
              "occupied pool slots != live counter");
  scope.check(occupied + free_count + retired_slots_ == slot_count_,
              "pool-slots-accounted",
              "live + free + retired slots != pool size");

  // Every live event has a pending wheel/heap entry (tombstones may add
  // more), and the occupancy bitmaps agree with the bucket vectors.
  std::size_t pending = far_keys_.size();
  bool occ_ok = true;
  const std::vector<WheelEntry>* active = &active_bucket();
  for (int level = 0; level < kWheelLevels; ++level) {
    for (std::uint32_t b = 0; b < kWheelSlots; ++b) {
      const std::vector<WheelEntry>& v = rings_[level][b];
      pending += v.size();
      const bool bit = (occ_[level] >> b) & 1u;
      if (&v == active) {
        if (bit) occ_ok = false;  // the active bucket is tracked by pos_
      } else if (bit != !v.empty()) {
        occ_ok = false;
      }
    }
  }
  INBAND_ASSERT(pos_ <= active->size());
  pending -= pos_;  // consumed prefix of the active bucket
  scope.check(pending >= live_, "wheel-covers-live",
              "fewer pending wheel entries than live events");
  scope.check(occ_ok, "wheel-occupancy-bitmap",
              "occupancy bitmap disagrees with bucket contents");
  scope.check(next_seq_ >= 1 + live_, "id-counter-sane");
  const SimTime next = next_time();
  if (next != kNoTime && last_popped_ != kNoTime) {
    scope.check(next >= last_popped_, "time-monotonic",
                "next live event is earlier than the last popped event");
  }
}

void EventQueue::digest_state(StateDigest& digest) {
  // Mixes the same quantities (in the same order) as the pre-pool
  // implementation: push counter, live count, last pop time, next event
  // time. Wheel geometry, bucket membership and slot generations are
  // storage artifacts and stay out, which is what keeps digests
  // bit-identical across the storage rework.
  digest.mix(next_seq_);
  digest.mix(live_);
  digest.mix_i64(last_popped_);
  digest.mix_i64(next_time());
}

}  // namespace inband
