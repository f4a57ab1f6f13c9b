#include "sim/event_queue.h"

#include <algorithm>
#include <bit>

#include "check/invariant_auditor.h"
#include "check/state_digest.h"
#include "util/assert.h"

namespace inband {

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
  unlink(list_for(s.t), s);
  s.callback.reset();
  retire_handle(s);
  recycle_slot(index, s);
  INBAND_ASSERT(live_ > 0);
  --live_;
  return true;
}

// Slow path of front(): the active list is drained. The earliest pending
// events sit in the first occupied bucket ahead of the cursor on the lowest
// level that has one, or, with every level empty, in the overflow list. The
// cursor jumps straight to the earliest time in that list and the list is
// re-filed under it: its earliest entries become the active list, the rest
// drop to lower levels. Any cursor at or before the earliest pending event
// leaves every other event's list unchanged (they differ from it in the
// same digit as before), so the jump needs no other bookkeeping.
std::uint32_t EventQueue::advance_cursor() {
  const std::uint64_t w = static_cast<std::uint64_t>(wtime_);
  std::uint32_t from = kOverflow;
  for (std::uint32_t level = 0; level < kLevels; ++level) {
    const std::uint32_t next =
        static_cast<std::uint32_t>((w >> (level * kLevelBits)) & kWheelMask) + 1;
    const std::uint64_t ahead =
        next < kWheelSlots ? occ_[level] >> next << next : 0;
    if (ahead != 0) {
      from = 1 + level * kWheelSlots +
             static_cast<std::uint32_t>(std::countr_zero(ahead));
      break;
    }
    INBAND_DCHECK(occ_[level] == 0, "stale occupancy behind the cursor");
  }
  const std::uint32_t head = lists_[from].head;
  if (head == kNullSlot) return kNullSlot;  // the queue is empty
  SimTime first = slot_ref(head).t;
  for (std::uint32_t i = slot_ref(head).next; i != kNullSlot;
       i = slot_ref(i).next) {
    first = std::min(first, slot_ref(i).t);
  }
  wtime_ = first;
  refile(from);
  return lists_[kActive].head;
}

// Detaches one list and files its entries under the (just moved) cursor.
// They land in the active list or on lower levels, all empty beforehand, so
// appending in list order keeps each list in push order. The entries that
// land in the active list are those at the cursor's time, so it is in
// (time, push order) without sorting.
void EventQueue::refile(std::uint32_t list) {
  std::uint32_t i = lists_[list].head;
  lists_[list] = List{};
  if (is_bucket(list)) occ_word(list) &= ~occ_bit(list);
  while (i != kNullSlot) {
    Slot& s = slot_ref(i);
    const std::uint32_t next = s.next;
    append(list_for(s.t), i, s);
    i = next;
  }
}

SimTime EventQueue::next_time() {
  const std::uint32_t head = front();
  return head == kNullSlot ? kNoTime : slot_ref(head).t;
}

void EventQueue::audit_invariants(AuditScope& scope) {
  std::size_t occupied = 0;
  std::uint64_t free_count = 0;
  for (std::uint32_t i = 0; i < slot_count_; ++i) {
    if (slot_ref(i).callback) ++occupied;
  }
  for (std::uint32_t i = free_head_; i != kNullSlot;
       i = slot_ref(i).next) {
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

  // Every live event sits in exactly one pending list — the one the wheel
  // geometry assigns its time — with consistent links; the active list is
  // in time order and the occupancy bitmaps agree with the buckets. Walks stop
  // after slot_count_ steps so a corrupted cycle cannot hang the audit.
  std::size_t pending = 0;
  bool lists_ok = true;
  bool occ_ok = true;
  for (std::uint32_t list = 0; list <= kOverflow; ++list) {
    const List& l = lists_[list];
    std::uint32_t prev = kNullSlot;
    std::uint32_t steps = 0;
    for (std::uint32_t i = l.head; i != kNullSlot && steps <= slot_count_;
         i = slot_ref(i).next, ++steps) {
      const Slot& s = slot_ref(i);
      lists_ok = lists_ok && s.prev == prev && s.callback && i != firing_slot_ &&
                 list_for(s.t) == list &&
                 (list != kActive || prev == kNullSlot ||
                  slot_ref(prev).t <= s.t);
      prev = i;
    }
    lists_ok = lists_ok && steps <= slot_count_ && l.tail == prev;
    pending += steps;
    if (is_bucket(list) &&
        ((occ_[(list - 1) / kWheelSlots] & occ_bit(list)) != 0) !=
            (l.head != kNullSlot)) {
      occ_ok = false;
    }
  }
  scope.check(pending == live_, "wheel-covers-live",
              "pending wheel entries != live events");
  scope.check(lists_ok, "wheel-lists-consistent",
              "a pending list has broken links, a dead or misfiled entry, "
              "or an unsorted active list");
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
