// Per-flow estimator state store.
//
// Bounded map from FlowKey to EnsembleState with idle aging — the software
// analogue of the per-flow BPF map an XDP load balancer would dedicate to
// the estimator. An entry is created by the flow's first packet, refreshed
// on every packet, and erased when the LB reports the flow closed (right
// after its first FIN or RST; later packets of a closing flow never reach
// the policy, see lb/policy.h). Flows that never close through the LB are
// swept when idle too long; at capacity the stalest entry is evicted. So
// the table holds about one entry per open flow.
//
// Entries live in an index-stable slab (fixed-size chunks, never moved, so
// the FlowState& get_or_create() returns stays valid until that flow is
// erased, expired or evicted). A flat OpenHashMap maps each flow to its
// slab index, and a doubly linked recency list threads the live entries by
// index, oldest first. Simulated time never runs backwards, so appending
// on every refresh keeps the list sorted by last_seen: a refresh is an O(1)
// unlink/append, a sweep pops expired entries off the head, and eviction
// scans only the head's equal-last_seen group for the smallest flow key.
// Freed slab entries go on a free list. FlowState is a fixed-size,
// trivially copyable record, so recycling an entry is an assignment and
// nothing per flow lives on the heap.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/ensemble_timeout.h"
#include "net/flow.h"
#include "util/open_hash_map.h"
#include "util/shard.h"
#include "util/time.h"

namespace inband {

class AuditScope;
class StateDigest;

struct FlowStateTableConfig {
  std::size_t max_entries = 1 << 18;
  SimTime idle_timeout = sec(30);
  SimTime sweep_interval = sec(1);
};

// Everything the policy keeps per flow, in one record: the estimator's
// ladder state and, for the handshake bootstrap (§3's "simple
// instantiation"), the arrival time of the flow's SYN while its handshake
// ACK is outstanding. syn_at stays kNoTime unless
// InbandPolicyConfig::use_handshake_bootstrap is on.
struct FlowState {
  EnsembleState ensemble;
  SimTime syn_at = kNoTime;
};
static_assert(std::is_trivially_copyable_v<FlowState>);
static_assert(sizeof(FlowState) <= 128, "one compact per-flow map entry");

INBAND_SHARD_LOCAL(lb)
class FlowStateTable {
 public:
  explicit FlowStateTable(FlowStateTableConfig config = {});

  // State for `flow`, creating it if absent; refreshes last-seen.
  FlowState& get_or_create(const FlowKey& flow, SimTime now);

  // State for `flow`, or nullptr when untracked. Read-only: neither inserts
  // nor refreshes last-seen.
  const FlowState* find(const FlowKey& flow) const;

  // Drops the flow's state (the flow closed) and recycles its slab entry.
  // No-op when absent.
  void erase(const FlowKey& flow);

  // Amortized cleanup; cheap to call per packet.
  void maybe_sweep(SimTime now);

  std::size_t size() const { return map_.size(); }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t expirations() const { return expirations_; }

  // Invariant audit: capacity/liveness bounds for the table itself plus the
  // estimator-state sanity of every entry against ladder size
  // `expected_k` (the owning policy passes EnsembleTimeout::k()).
  void audit_invariants(AuditScope& scope, std::size_t expected_k) const;

  // Order-independent digest of all per-flow state plus counters.
  void digest_state(StateDigest& digest) const;

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;
  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  struct Node {
    FlowKey flow;
    FlowState state;
    SimTime last_seen = kNoTime;
    std::uint32_t older = kNil;  // recency list; unused while free
    std::uint32_t newer = kNil;  // recency list, or the free-list link
  };

  Node& node(std::uint32_t i) {
    return chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
  }
  const Node& node(std::uint32_t i) const {
    return chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
  }
  std::uint32_t allocate_node();
  void append(std::uint32_t i);  // as the newest entry
  void unlink(std::uint32_t i);
  // Drops entry `i` from the map and the list and recycles its slab slot.
  void remove(std::uint32_t i);
  void evict_stalest();

  FlowStateTableConfig config_;
  OpenHashMap<FlowKey, std::uint32_t> map_;     // flow -> slab index
  std::vector<std::unique_ptr<Node[]>> chunks_;  // the slab
  std::uint32_t slab_size_ = 0;  // slots ever handed out (high-water)
  std::uint32_t free_ = kNil;    // free-list head
  std::uint32_t oldest_ = kNil;  // recency list head
  std::uint32_t newest_ = kNil;  // recency list tail
  SimTime last_sweep_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t expirations_ = 0;
};

}  // namespace inband
