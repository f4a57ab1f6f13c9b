#include "lb/conntrack.h"

#include "check/invariant_auditor.h"
#include "check/state_digest.h"
#include "util/assert.h"
#include "util/sorted_view.h"

namespace inband {

ConnTracker::ConnTracker(ConntrackConfig config) : config_{config} {
  INBAND_ASSERT(config_.max_entries > 0);
}

bool ConnTracker::expired(const Entry& e, SimTime now) const {
  if (e.closing && now - e.close_marked >= config_.closing_linger) return true;
  return now - e.last_seen >= config_.idle_timeout;
}

BackendId ConnTracker::lookup(const FlowKey& flow, SimTime now) {
  const auto it = map_.find(flow);
  if (it == map_.end() || expired(it->second, now)) {
    if (it != map_.end()) {
      map_.erase(it);
      ++expirations_;
    }
    ++misses_;
    return kNoBackend;
  }
  it->second.last_seen = now;
  ++hits_;
  return it->second.backend;
}

void ConnTracker::insert(const FlowKey& flow, BackendId backend, SimTime now) {
  if (map_.size() >= config_.max_entries &&
      map_.find(flow) == map_.end()) {
    evict_one(now);
  }
  // hotlint:allow(hot-growth): flow admission, bounded by max_entries above
  map_[flow] = Entry{backend, now, false, kNoTime};
}

bool ConnTracker::mark_closing(const FlowKey& flow, SimTime now) {
  const auto it = map_.find(flow);
  if (it == map_.end()) return false;
  if (it->second.closing) return false;
  it->second.closing = true;
  it->second.close_marked = now;
  return true;
}

void ConnTracker::evict_one(SimTime now) {
  // Prefer an expired entry; otherwise evict the stalest. The victim is the
  // unique minimum by (not-expired, last_seen, flow key) — ties on last_seen
  // break on the flow key, never on hash-table position, so the evicted
  // entry is reproducible run to run. A full scan is acceptable because
  // eviction only happens at capacity, which the experiments never approach;
  // production tables use clocked buckets.
  const auto better = [&](const auto& a, const auto& b) {
    const bool a_exp = expired(a.second, now);
    const bool b_exp = expired(b.second, now);
    if (a_exp != b_exp) return a_exp;
    if (a.second.last_seen != b.second.last_seen) {
      return a.second.last_seen < b.second.last_seen;
    }
    return a.first < b.first;
  };
  auto victim = map_.end();
  // detlint:allow(unordered-iter): selects the unique minimum by a value-based key; the result is independent of visit order
  for (auto it = map_.begin(); it != map_.end(); ++it) {
    if (victim == map_.end() || better(*it, *victim)) victim = it;
  }
  if (victim != map_.end()) {
    map_.erase(victim);
    ++evictions_;
  }
}

void ConnTracker::sweep(SimTime now) {
  if (now - last_sweep_ < config_.sweep_interval) return;
  last_sweep_ = now;
  // detlint:allow(unordered-iter): erases the expired subset; expiry is decided per entry, independent of visit order
  expirations_ += map_.erase_if(
      [&](const auto& kv) { return expired(kv.second, now); });
}

void ConnTracker::audit_invariants(AuditScope& scope,
                                   BackendId backend_limit) const {
  const SimTime now = scope.now();
  scope.check(map_.size() <= config_.max_entries, "capacity-bound",
              "conntrack exceeds max_entries");
  scope.check(last_sweep_ <= now, "sweep-clock-sane");
  // Sorted snapshot: audit failure messages come out in flow-key order, so
  // a failing run reports identically across reruns.
  for (const auto* e : sorted_entries(map_)) {
    const auto& [flow, entry] = *e;
    if (!scope.check(entry.backend != kNoBackend, "backend-assigned",
                     format_flow(flow))) {
      continue;
    }
    if (backend_limit != kNoBackend) {
      scope.check(entry.backend < backend_limit, "backend-in-pool",
                  format_flow(flow) + " pinned to out-of-range backend " +
                      std::to_string(entry.backend));
    }
    scope.check(entry.last_seen <= now, "last-seen-in-past",
                format_flow(flow));
    if (entry.closing) {
      scope.check(entry.close_marked != kNoTime && entry.close_marked <= now,
                  "close-mark-sane", format_flow(flow));
    } else {
      scope.check(entry.close_marked == kNoTime, "close-mark-only-when-closing",
                  format_flow(flow));
    }
  }
}

void ConnTracker::digest_state(StateDigest& digest) const {
  UnorderedDigest entries;
  // detlint:allow(unordered-iter): per-entry digests fold through the commutative UnorderedDigest combiner
  for (const auto& [flow, entry] : map_) {
    StateDigest e;
    e.mix(hash_flow(flow));
    e.mix_u32(entry.backend);
    e.mix_i64(entry.last_seen);
    e.mix_bool(entry.closing);
    e.mix_i64(entry.close_marked);
    entries.add(e);
  }
  entries.mix_into(digest);
  digest.mix(hits_);
  digest.mix(misses_);
  digest.mix(evictions_);
  digest.mix(expirations_);
  digest.mix_i64(last_sweep_);
}

std::vector<std::size_t> ConnTracker::connections_per_backend() const {
  std::vector<std::size_t> out;
  // detlint:allow(unordered-iter): commutative per-backend counting; the histogram is independent of visit order
  for (const auto& [flow, entry] : map_) {
    (void)flow;
    if (entry.closing) continue;
    if (entry.backend >= out.size()) out.resize(entry.backend + 1, 0);
    ++out[entry.backend];
  }
  return out;
}

}  // namespace inband
