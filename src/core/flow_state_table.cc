#include "core/flow_state_table.h"

#include "check/invariant_auditor.h"
#include "check/state_digest.h"
#include "util/assert.h"
#include "util/hotpath.h"
#include "util/sorted_view.h"

namespace inband {

FlowStateTable::FlowStateTable(FlowStateTableConfig config)
    : config_{config} {
  INBAND_ASSERT(config_.max_entries > 0 && config_.max_entries < kNil);
}

FlowState& FlowStateTable::get_or_create(const FlowKey& flow, SimTime now) {
  INBAND_DCHECK(newest_ == kNil || now >= node(newest_).last_seen,
                "recency list needs non-decreasing time");
  if (const auto it = map_.find(flow); it != map_.end()) {
    const std::uint32_t i = it->second;
    Node& n = node(i);
    if (n.last_seen != now) {
      unlink(i);
      n.last_seen = now;
      append(i);
    }
    return n.state;
  }
  if (map_.size() >= config_.max_entries) evict_stalest();
  const std::uint32_t i = allocate_node();
  // hotlint:allow(hot-growth): flow admission, bounded by max_entries
  map_.emplace(flow, i);
  Node& n = node(i);
  n.flow = flow;
  n.last_seen = now;
  append(i);
  return n.state;
}

void FlowStateTable::erase(const FlowKey& flow) {
  if (const auto it = map_.find(flow); it != map_.end()) remove(it->second);
}

std::uint32_t FlowStateTable::allocate_node() {
  if (free_ != kNil) {
    const std::uint32_t i = free_;
    free_ = node(i).newer;
    return i;
  }
  if ((slab_size_ & (kChunkSize - 1)) == 0) {
    INBAND_COLD_OK("slab growth: one chunk per kChunkSize admitted flows");
    chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
  }
  return slab_size_++;
}

void FlowStateTable::append(std::uint32_t i) {
  Node& n = node(i);
  n.older = newest_;
  n.newer = kNil;
  if (newest_ != kNil) {
    node(newest_).newer = i;
  } else {
    oldest_ = i;
  }
  newest_ = i;
}

void FlowStateTable::unlink(std::uint32_t i) {
  const Node& n = node(i);
  if (n.older != kNil) {
    node(n.older).newer = n.newer;
  } else {
    oldest_ = n.newer;
  }
  if (n.newer != kNil) {
    node(n.newer).older = n.older;
  } else {
    newest_ = n.older;
  }
}

void FlowStateTable::remove(std::uint32_t i) {
  Node& n = node(i);
  map_.erase(n.flow);
  unlink(i);
  n.state.clear_for_reuse();
  n.last_seen = kNoTime;
  n.older = kNil;
  n.newer = free_;
  free_ = i;
}

void FlowStateTable::evict_stalest() {
  // The list runs oldest first, so the stalest entries are the head's
  // equal-last_seen group. Ties break on the flow key, never on table or
  // slab position, so the evicted entry is reproducible run to run.
  INBAND_ASSERT(oldest_ != kNil, "evicting from an empty flow table");
  const SimTime stalest = node(oldest_).last_seen;
  std::uint32_t victim = oldest_;
  for (std::uint32_t i = node(oldest_).newer;
       i != kNil && node(i).last_seen == stalest; i = node(i).newer) {
    if (node(i).flow < node(victim).flow) victim = i;
  }
  remove(victim);
  ++evictions_;
}

void FlowStateTable::maybe_sweep(SimTime now) {
  if (now - last_sweep_ < config_.sweep_interval) return;
  last_sweep_ = now;
  while (oldest_ != kNil &&
         now - node(oldest_).last_seen >= config_.idle_timeout) {
    remove(oldest_);
    ++expirations_;
  }
}

void FlowStateTable::audit_invariants(AuditScope& scope,
                                      std::size_t expected_k) const {
  const SimTime now = scope.now();
  scope.check(map_.size() <= config_.max_entries, "capacity-bound",
              "flow state table exceeds max_entries");
  scope.check(last_sweep_ <= now, "sweep-clock-sane");
  // The recency list must thread exactly the live entries, oldest first.
  std::size_t listed = 0;
  std::uint32_t prev = kNil;
  for (std::uint32_t i = oldest_; i != kNil && listed <= map_.size();
       i = node(i).newer) {
    const Node& n = node(i);
    const auto it = map_.find(n.flow);
    scope.check(it != map_.end() && it->second == i, "recency-list-live",
                format_flow(n.flow));
    scope.check(n.older == prev, "recency-list-linked", format_flow(n.flow));
    scope.check(prev == kNil || node(prev).last_seen <= n.last_seen,
                "recency-list-ordered", format_flow(n.flow));
    prev = i;
    ++listed;
  }
  scope.check(listed == map_.size() && prev == newest_,
              "recency-list-covers-live",
              "recency list does not thread every live entry");
  // Sorted snapshot: audit failure messages come out in flow-key order.
  for (const auto* e : sorted_entries(map_)) {
    const auto& [flow, index] = *e;
    const Node& n = node(index);
    scope.check(n.flow == flow, "slab-key-matches", format_flow(flow));
    scope.check(n.last_seen != kNoTime && n.last_seen <= now,
                "last-seen-in-past", format_flow(flow));
    scope.check(n.state.min_sample == kNoTime || n.state.min_sample >= 0,
                "floor-nonnegative", format_flow(flow));
    EnsembleTimeout::audit_state(n.state.ensemble, expected_k, scope);
  }
}

void FlowStateTable::digest_state(StateDigest& digest) const {
  UnorderedDigest entries;
  // detlint:allow(unordered-iter): per-entry digests fold through the commutative UnorderedDigest combiner
  for (const auto& [flow, index] : map_) {
    const Node& n = node(index);
    StateDigest e;
    e.mix(hash_flow(flow));
    e.mix_i64(n.last_seen);
    e.mix_i64(n.state.min_sample);
    EnsembleTimeout::digest_state(n.state.ensemble, e);
    entries.add(e);
  }
  entries.mix_into(digest);
  digest.mix(evictions_);
  digest.mix(expirations_);
  digest.mix_i64(last_sweep_);
}

}  // namespace inband
