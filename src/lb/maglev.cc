#include "lb/maglev.h"

#include <algorithm>
#include <string>
#include <string_view>

#include "check/invariant_auditor.h"
#include "check/state_digest.h"
#include "util/assert.h"
#include "util/hotpath.h"

namespace inband {

namespace {

bool is_prime(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t d = 2; d * d <= n; ++d) {
    if (n % d == 0) return false;
  }
  return true;
}

std::uint64_t hash_name(std::string_view name, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (char c : name) {
    h = splitmix64(h ^ static_cast<unsigned char>(c));
  }
  return h;
}

}  // namespace

MaglevTable::MaglevTable(std::uint64_t table_size, std::uint64_t hash_seed)
    : table_size_{table_size}, seed_{hash_seed} {
  INBAND_ASSERT(is_prime(table_size), "Maglev table size must be prime");
  table_.assign(table_size_, kNoBackend);
}

void MaglevTable::build(const BackendPool& pool) {
  struct Candidate {
    BackendId id;
    std::uint32_t weight;
    std::uint64_t skip;
    std::uint64_t pos;   // next slot of its permutation (offset + k * skip)
    double credit = 0.0;     // fractional turn accumulator
  };

  std::vector<Candidate> cands;
  max_backend_id_ = 0;
  std::uint32_t max_weight = 0;
  for (const auto& b : pool) {
    max_backend_id_ = std::max(max_backend_id_, b.id);
    if (!b.healthy || b.weight == 0) continue;
    Candidate c;
    c.id = b.id;
    c.weight = b.weight;
    c.pos = hash_name(b.name, seed_) % table_size_;
    c.skip = hash_name(b.name, splitmix64(seed_)) % (table_size_ - 1) + 1;
    // hotlint:allow(hot-growth): table rebuild runs at control-plane rate
    cands.push_back(c);
    max_weight = std::max(max_weight, b.weight);
  }
  INBAND_ASSERT(!cands.empty(), "Maglev build with no eligible backends");

  std::fill(table_.begin(), table_.end(), kNoBackend);
  // hotlint:allow(hot-growth): table rebuild runs at control-plane rate
  owned_.assign(max_backend_id_ + 1, 0);
  std::uint64_t filled = 0;
  // Weighted turn-taking via fractional credits: per round each backend
  // earns weight/max_weight of a turn and claims a slot whenever a full
  // credit accumulates. This interleaves backends slot-by-slot (preserving
  // Maglev's low-disruption property under weight changes), unlike naive
  // "weight consecutive turns", which clusters slots into runs and rewrites
  // large table regions on small weight adjustments.
  while (true) {
    for (auto& c : cands) {
      c.credit += static_cast<double>(c.weight) / max_weight;
      while (c.credit >= 1.0) {
        c.credit -= 1.0;
        // Walk this backend's permutation to its next empty slot. skip <
        // table_size_, so one conditional subtraction keeps pos reduced: the
        // same sequence as (offset + k * skip) % table_size_, without a
        // 64-bit division per probe.
        std::uint64_t slot;
        do {
          slot = c.pos;
          c.pos += c.skip;
          if (c.pos >= table_size_) c.pos -= table_size_;
        } while (table_[slot] != kNoBackend);
        table_[slot] = c.id;
        ++owned_[c.id];
        if (++filled == table_size_) return;
      }
    }
  }
}

BackendId MaglevTable::lookup(const FlowKey& flow) const {
  return lookup_hash(hash_flow(flow, seed_));
}

BackendId MaglevTable::lookup_hash(std::uint64_t hash) const {
  return table_[hash % table_size_];
}

void MaglevTable::assign_slot(std::size_t slot, BackendId id) {
  const BackendId old = table_[slot];
  if (old != kNoBackend) --owned_[old];
  if (id != kNoBackend) {
    if (id >= owned_.size()) {
      INBAND_COLD_OK("owner id beyond the built pool: test corruption only");
      owned_.resize(id + 1, 0);
    }
    ++owned_[id];
  }
  table_[slot] = id;
}

std::size_t MaglevTable::slots_owned(BackendId id) const {
  if (id < owned_.size()) return owned_[id];
  if (id != kNoBackend) return 0;
  std::size_t owned = 0;
  for (const std::size_t n : owned_) owned += n;
  return table_size_ - owned;
}

std::vector<double> MaglevTable::shares() const {
  // One entry per id up to the larger of the built pool's top id and the
  // highest id still owning a slot.
  std::size_t n = owned_.size();
  while (n > max_backend_id_ + 1 && owned_[n - 1] == 0) --n;
  std::vector<double> out(std::max<std::size_t>(n, max_backend_id_ + 1), 0.0);
  for (std::size_t id = 0; id < n; ++id) {
    out[id] =
        static_cast<double>(owned_[id]) / static_cast<double>(table_size_);
  }
  return out;
}

std::size_t MaglevTable::shift_slots(BackendId from, double fraction) {
  INBAND_ASSERT(fraction >= 0.0 && fraction <= 1.0);
  // Receivers: every other backend currently in the table, in id order.
  // The scratch vector is a member so repeated shifts reuse its capacity.
  std::vector<BackendId>& receivers = shift_receivers_;
  receivers.clear();
  for (std::size_t id = 0; id < owned_.size(); ++id) {
    if (owned_[id] == 0 || id == from) continue;
    // hotlint:allow(hot-growth): capacity retained across shifts, warms once
    receivers.push_back(static_cast<BackendId>(id));
  }
  if (receivers.empty()) return 0;

  auto want = static_cast<std::size_t>(
      fraction * static_cast<double>(table_size_) + 0.999999);
  std::size_t moved = 0;
  std::size_t rr = 0;
  for (std::uint64_t i = 0; i < table_size_ && moved < want; ++i) {
    if (table_[i] != from) continue;
    assign_slot(i, receivers[rr]);
    rr = (rr + 1) % receivers.size();
    ++moved;
  }
  return moved;
}

std::size_t MaglevTable::move_slots(BackendId from, BackendId to,
                                    std::size_t count) {
  std::size_t moved = 0;
  for (std::uint64_t i = 0; i < table_size_ && moved < count; ++i) {
    if (table_[i] != from) continue;
    assign_slot(i, to);
    ++moved;
  }
  return moved;
}

void MaglevTable::audit_invariants(AuditScope& scope,
                                   const BackendPool* pool) const {
  if (!scope.check(table_.size() == table_size_, "table-size-consistent")) {
    return;
  }
  for (std::uint64_t i = 0; i < table_size_; ++i) {
    const BackendId id = table_[i];
    if (!scope.check(id != kNoBackend, "slot-populated",
                     "empty slot " + std::to_string(i))) {
      continue;
    }
    if (!scope.check(id <= max_backend_id_, "slot-owner-valid",
                     "slot " + std::to_string(i) + " owned by unknown id " +
                         std::to_string(id))) {
      continue;
    }
    if (pool != nullptr) {
      bool in_pool = false;
      for (const auto& b : *pool) {
        if (b.id == id) {
          in_pool = true;
          break;
        }
      }
      scope.check(in_pool, "slot-owner-in-pool",
                  "slot " + std::to_string(i) + " owned by id " +
                      std::to_string(id) + " absent from the pool");
    }
  }
}

void MaglevTable::digest_state(StateDigest& digest) const {
  digest.mix(table_size_);
  digest.mix(seed_);
  digest.mix_u32(max_backend_id_);
  for (const BackendId id : table_) digest.mix_u32(id);
}

void MaglevTable::corrupt_slot_for_test(std::size_t slot, BackendId id) {
  INBAND_ASSERT(slot < table_.size());
  assign_slot(slot, id);
}

std::size_t MaglevTable::diff(const MaglevTable& other) const {
  INBAND_ASSERT(other.table_size_ == table_size_);
  std::size_t d = 0;
  for (std::uint64_t i = 0; i < table_size_; ++i) {
    if (table_[i] != other.table_[i]) ++d;
  }
  return d;
}

}  // namespace inband
