// Flat open-addressing hash map for the per-packet lookup tables.
//
// The software analogue of the flat, preallocated BPF hash map an XDP load
// balancer keys its per-flow state on: one contiguous slot array instead of
// std::unordered_map's node-per-entry buckets, so a lookup is a multiply, a
// shift, and a short forward scan instead of a prime modulo and a pointer
// chase.
//
// Layout: a power-of-two array of slots plus a parallel control byte per
// slot (0 = empty, else 0x80 | a 7-bit tag of the key's hash). The home slot
// is the top bits of `hash * 2^64/phi` (Fibonacci hashing, so the hash
// functor only has to be injective-ish, not well mixed); probing is linear
// and compares keys only where the tag matches.
//
// Erase is backward-shift deletion: entries after the hole move back toward
// their home slots until an empty slot ends the cluster. There are no
// tombstones, so lookups never slow down under insert/erase churn and erase
// never allocates. The arrays double when an insert would push the load past
// 7/8, starting from 8 slots on the first insert — nothing is allocated for
// a table that is never written. Capacity is never given back.
//
// Unlike std::unordered_map, entries MOVE: any insert (growth) or erase
// (backward shift) invalidates every iterator, pointer and reference into
// the table. Keep a mapped value that must outlive a mutation behind a
// pointer or an index (DESIGN.md §10.2 lists the sites). Iteration order
// follows the insert/erase history, not the keys; detlint treats the type
// as an unordered container (rule unordered-iter).
#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assert.h"
#include "util/hotpath.h"
#include "util/shard.h"

namespace inband {

// Hash functor for OpenHashMap keys. Integers hash to themselves (the table
// mixes); other key types specialize it next to their definition.
template <typename K>
struct OpenHash;

template <std::integral K>
struct OpenHash<K> {
  std::uint64_t operator()(K k) const noexcept {
    return static_cast<std::uint64_t>(k);
  }
};

template <typename K, typename V, typename Hash = OpenHash<K>>
INBAND_SHARD_LOCAL(owner)
class OpenHashMap {
 public:
  using key_type = K;
  using mapped_type = V;
  // Keys are not const because backward-shift deletion moves entries
  // between slots; never modify a key in place.
  using value_type = std::pair<K, V>;

  template <bool Const>
  class Iter {
   public:
    using Map = std::conditional_t<Const, const OpenHashMap, OpenHashMap>;
    using iterator_category = std::forward_iterator_tag;
    using value_type = OpenHashMap::value_type;
    using difference_type = std::ptrdiff_t;
    using reference = std::conditional_t<Const, const value_type&, value_type&>;
    using pointer = std::conditional_t<Const, const value_type*, value_type*>;

    Iter() = default;
    Iter(Map* m, std::size_t i) : m_{m}, i_{i} {}
    // iterator -> const_iterator.
    template <bool C>
      requires(Const && !C)
    Iter(const Iter<C>& other) : m_{other.m_}, i_{other.i_} {}

    reference operator*() const { return m_->slots_[i_]; }
    pointer operator->() const { return &m_->slots_[i_]; }
    Iter& operator++() {
      i_ = m_->next_used(i_ + 1);
      return *this;
    }
    bool operator==(const Iter& other) const { return i_ == other.i_; }

   private:
    friend class OpenHashMap;
    template <bool>
    friend class Iter;
    Map* m_ = nullptr;
    std::size_t i_ = 0;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  OpenHashMap() = default;

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return ctrl_.size(); }

  iterator begin() { return {this, next_used(0)}; }
  iterator end() { return {this, ctrl_.size()}; }
  const_iterator begin() const { return {this, next_used(0)}; }
  const_iterator end() const { return {this, ctrl_.size()}; }

  INBAND_HOT iterator find(const K& key) {
    return {this, find_index(key)};
  }
  INBAND_HOT const_iterator find(const K& key) const {
    return {this, find_index(key)};
  }

  // Inserts {key, V(args...)} unless `key` is present; either way returns
  // the key's entry and whether it was inserted. May grow (see header).
  template <typename... Args>
  INBAND_HOT std::pair<iterator, bool> try_emplace(const K& key,
                                                   Args&&... args) {
    const std::uint64_t p = mix(key);
    std::size_t i = size_ == 0 ? ctrl_.size() : probe(key, p);
    if (i != ctrl_.size()) return {{this, i}, false};
    if (size_ + 1 > max_load()) {
      INBAND_COLD_OK("doubling growth past the load high-water mark");
      grow();
    }
    i = first_empty(p);
    ctrl_[i] = tag(p);
    slots_[i].first = key;
    slots_[i].second = V(std::forward<Args>(args)...);
    ++size_;
    return {{this, i}, true};
  }

  // std::unordered_map spellings of try_emplace.
  INBAND_HOT std::pair<iterator, bool> emplace(const K& key, V value) {
    return try_emplace(key, std::move(value));
  }
  INBAND_HOT V& operator[](const K& key) {
    return try_emplace(key).first->second;
  }

  // Erases `key`'s entry; returns the number erased (0 or 1).
  INBAND_HOT std::size_t erase(const K& key) {
    const std::size_t i = find_index(key);
    if (i == ctrl_.size()) return 0;
    erase_slot(i);
    return 1;
  }
  INBAND_HOT void erase(const_iterator it) { erase_slot(it.i_); }

  // Erases every entry for which `pred(value_type&)` holds; returns how many.
  // Visits each entry exactly once, in slot order (so only order-independent
  // predicates are deterministic — detlint flags the call like an
  // iteration). Allocation-free.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    if (size_ == 0) return 0;
    // Start just past an empty slot (one exists: load < 1). No cluster then
    // wraps past the walk's start, so a backward shift only ever moves an
    // unvisited entry into the slot being visited, never a visited one.
    std::size_t start = 0;
    while (ctrl_[start] != kEmpty) ++start;
    std::size_t erased = 0;
    std::size_t i = (start + 1) & mask_;
    while (i != start) {
      if (ctrl_[i] != kEmpty && pred(slots_[i])) {
        erase_slot(i);  // refills slot i from later in the cluster
        ++erased;
        continue;
      }
      i = (i + 1) & mask_;
    }
    return erased;
  }

 private:
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::size_t kMinCapacity = 8;

  // Hash times 2^64/phi: the top bits pick the home slot, the next seven
  // the control tag.
  static std::uint64_t mix(const K& key) {
    return Hash{}(key) * 0x9E3779B97F4A7C15ULL;
  }
  std::size_t home(std::uint64_t p) const {
    return static_cast<std::size_t>(p >> shift_);
  }
  std::uint8_t tag(std::uint64_t p) const {
    return static_cast<std::uint8_t>(0x80 | ((p >> (shift_ - 7)) & 0x7F));
  }
  std::size_t max_load() const { return ctrl_.size() - ctrl_.size() / 8; }

  std::size_t next_used(std::size_t i) const {
    while (i < ctrl_.size() && ctrl_[i] == kEmpty) ++i;
    return i;
  }

  // Slot holding `key`, or capacity() when absent.
  std::size_t probe(const K& key, std::uint64_t p) const {
    const std::uint8_t t = tag(p);
    for (std::size_t i = home(p);; i = (i + 1) & mask_) {
      const std::uint8_t c = ctrl_[i];
      if (c == kEmpty) return ctrl_.size();
      if (c == t && slots_[i].first == key) return i;
    }
  }
  std::size_t find_index(const K& key) const {
    if (size_ == 0) return ctrl_.size();
    return probe(key, mix(key));
  }
  std::size_t first_empty(std::uint64_t p) const {
    std::size_t i = home(p);
    while (ctrl_[i] != kEmpty) i = (i + 1) & mask_;
    return i;
  }

  void erase_slot(std::size_t hole) {
    INBAND_DCHECK(hole < ctrl_.size() && ctrl_[hole] != kEmpty);
    // The erased entry dies after the table is consistent again, so a
    // destructor that looks the table up sees a valid map.
    [[maybe_unused]] value_type doomed = std::move(slots_[hole]);
    for (std::size_t j = (hole + 1) & mask_; ctrl_[j] != kEmpty;
         j = (j + 1) & mask_) {
      // Entry j may fill the hole iff the hole lies on its probe path, i.e.
      // its home is no later than the hole (cyclically, walking toward j).
      const std::size_t h = home(mix(slots_[j].first));
      if (((j - h) & mask_) >= ((j - hole) & mask_)) {
        ctrl_[hole] = ctrl_[j];
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    ctrl_[hole] = kEmpty;
    slots_[hole] = value_type{};
    --size_;
  }

  void grow() {
    const std::size_t cap =
        ctrl_.empty() ? kMinCapacity : ctrl_.size() * 2;
    std::vector<std::uint8_t> old_ctrl(cap, kEmpty);
    std::vector<value_type> old_slots(cap);
    old_ctrl.swap(ctrl_);
    old_slots.swap(slots_);
    mask_ = cap - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
    for (std::size_t i = 0; i < old_ctrl.size(); ++i) {
      if (old_ctrl[i] == kEmpty) continue;
      const std::uint64_t p = mix(old_slots[i].first);
      const std::size_t j = first_empty(p);
      ctrl_[j] = tag(p);
      slots_[j] = std::move(old_slots[i]);
    }
  }

  std::vector<std::uint8_t> ctrl_;    // per slot: kEmpty or 0x80 | tag
  std::vector<value_type> slots_;     // same length as ctrl_
  std::size_t size_ = 0;
  std::size_t mask_ = 0;              // capacity - 1
  unsigned shift_ = 64;               // 64 - log2(capacity)
};

}  // namespace inband
