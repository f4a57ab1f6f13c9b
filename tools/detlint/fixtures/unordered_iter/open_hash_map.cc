// Fixture: raw visits of the flat OpenHashMap are unordered-iter true
// positives, exactly like std::unordered_map. Its slot order follows the
// insert/erase history, not the keys.
#include <cstdint>

#include "util/open_hash_map.h"

struct Digest {
  void mix(std::uint64_t) {}
};

struct FlowTable {
  inband::OpenHashMap<std::uint64_t, std::uint64_t> flows_;

  // Point lookups never depend on slot order.
  std::uint64_t get(std::uint64_t k) const {
    const auto it = flows_.find(k);
    return it == flows_.end() ? 0 : it->second;
  }

  void emit_all(Digest& d) const {
    for (const auto& [k, v] : flows_) d.mix(k ^ v);  // line 22: violation
  }

  std::uint64_t first_key() const {
    auto it = flows_.begin();  // line 26: violation
    return it == flows_.end() ? 0 : it->first;
  }

  // erase_if runs its predicate in slot order: an order-dependent
  // predicate (this one emits) is a hazard.
  void expire(Digest& d, std::uint64_t now) {
    flows_.erase_if([&](const auto& kv) {  // line 33: violation
      d.mix(kv.first);
      return kv.second < now;
    });
  }
};
