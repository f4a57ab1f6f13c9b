// Named monotonic counters.
//
// Components register counters by name in a CounterSet owned by the top-level
// rig; snapshots go into experiment reports. Lookup by name happens once —
// at wiring time, or on a LazyCounter's first increment — and the hot path
// increments through the returned reference.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "util/shard.h"

namespace inband {

INBAND_SHARD_LOCAL(owner)
class CounterSet {
 public:
  // Returns a stable reference; creating the same name twice returns the
  // same counter.
  std::uint64_t& get(std::string_view name);

  // Value of `name`, or 0 when absent.
  std::uint64_t value(std::string_view name) const;

  struct Entry {
    std::string name;
    std::uint64_t value;
  };
  // Sorted by name for deterministic output.
  std::vector<Entry> snapshot() const;

  void reset();

 private:
  struct Slot {
    std::string name;
    std::uint64_t value = 0;
  };
  // deque: stable element addresses as counters are added.
  std::deque<Slot> slots_;
};

// One named counter of a CounterSet, looked up on its first increment and
// incremented through the cached reference after that. The counter enters
// the set (and snapshot()) exactly when an inline `++set.get(name)` in the
// same place would have created it. `name` must outlive the LazyCounter
// (pass a string literal), and so must the set.
INBAND_SHARD_LOCAL(owner)
class LazyCounter {
 public:
  LazyCounter(CounterSet& set, std::string_view name)
      : set_{&set}, name_{name} {}

  LazyCounter& operator++() {
    if (value_ == nullptr) value_ = &set_->get(name_);
    ++*value_;
    return *this;
  }

 private:
  CounterSet* set_;
  std::string_view name_;
  std::uint64_t* value_ = nullptr;
};

}  // namespace inband
