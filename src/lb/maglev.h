// Maglev consistent hashing (Eisenbud et al., NSDI '16), with weights and an
// incremental slot-shift operation.
//
// The table is populated with the paper's permutation scheme: each backend
// derives (offset, skip) from two hashes of its name and claims slots in
// round-robin turns; weights grant proportionally more turns per round.
// Lookup is a single modulo + array read.
//
// shift_slots(from, fraction) reassigns a fraction of the *total table* away
// from one backend, spreading the slots equally over the remaining healthy
// backends — this is the α-shift primitive the paper's controller applies to
// "the LB's hash table". Shifted slots are chosen deterministically from the
// victim's slot list; existing connections are unaffected because the
// dataplane consults conntrack before the table.
#pragma once

#include <cstdint>
#include <vector>

#include "lb/backend.h"
#include "net/flow.h"
#include "util/rng.h"
#include "util/shard.h"

namespace inband {

class AuditScope;
class StateDigest;

INBAND_SHARD_LOCAL(lb)
class MaglevTable {
 public:
  // table_size must be a prime (asserted); 65537 in the Maglev paper's small
  // configuration, smaller primes are fine for tests.
  explicit MaglevTable(std::uint64_t table_size = 65537,
                       std::uint64_t hash_seed = 0xab5e1ef7ULL);

  // (Re)builds the table for the given pool. Unhealthy and zero-weight
  // backends get no slots. At least one eligible backend is required.
  void build(const BackendPool& pool);

  // Backend for a flow (hash of the 5-tuple modulo table size).
  BackendId lookup(const FlowKey& flow) const;
  BackendId lookup_hash(std::uint64_t hash) const;

  // Moves ceil(fraction * table_size) slots away from `from`, equally over
  // the other backends present in the table (round-robin). Returns the
  // number of slots actually moved (bounded by how many `from` owns).
  std::size_t shift_slots(BackendId from, double fraction);

  // Moves `count` slots from `from` to `to`. Returns slots moved.
  std::size_t move_slots(BackendId from, BackendId to, std::size_t count);

  std::uint64_t table_size() const { return table_size_; }
  // O(1): read from the per-backend slot counts kept alongside the table.
  std::size_t slots_owned(BackendId id) const;
  // Fraction of the table owned by each backend id present; O(backends).
  std::vector<double> shares() const;
  const std::vector<BackendId>& raw_table() const { return table_; }

  // Number of slots that differ between this table and `other` (same size).
  std::size_t diff(const MaglevTable& other) const;

  // Invariant audit: the table is fully populated (build() ran), every slot
  // owner is a known backend id and — when a pool is supplied — a backend
  // that actually exists in the pool. This is the permutation-validity check
  // the α-shift fast path relies on: lookup() is an unchecked array read.
  void audit_invariants(AuditScope& scope, const BackendPool* pool) const;

  // Folds the full slot assignment into a determinism digest.
  void digest_state(StateDigest& digest) const;

  // Fault injection for the auditor's negative tests: overwrites one slot,
  // bypassing every consistency guarantee. Never call outside tests.
  void corrupt_slot_for_test(std::size_t slot, BackendId id);

 private:
  // Points slot `slot` at `id`, keeping owned_ in step.
  void assign_slot(std::size_t slot, BackendId id);

  std::uint64_t table_size_;
  std::uint64_t seed_;
  std::vector<BackendId> table_;
  // owned_[id]: slots of table_ owned by backend id. Every write to table_
  // goes through build() or assign_slot(), so shares(), slots_owned() and
  // the shift receiver list never rescan the table.
  std::vector<std::size_t> owned_;
  BackendId max_backend_id_ = 0;
  // Receiver scratch for shift_slots(): reused across calls so the periodic
  // α-shift control loop stays off the allocator once warmed.
  std::vector<BackendId> shift_receivers_;
};

}  // namespace inband
