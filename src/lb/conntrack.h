// Connection tracking for per-connection consistency.
//
// Once a flow has been routed, every later packet of that flow must reach
// the same backend even if the routing table changes underneath (§2.5's
// connection-to-server affinity requirement). Entries are created on SYN,
// marked on FIN/RST, and expire by idle timeout via an amortized sweep; a
// capacity bound evicts the stalest entries when the table would overflow.
#pragma once

#include <cstdint>
#include <vector>

#include "lb/backend.h"
#include "net/flow.h"
#include "util/open_hash_map.h"
#include "util/shard.h"
#include "util/time.h"

namespace inband {

class AuditScope;
class StateDigest;

struct ConntrackConfig {
  std::size_t max_entries = 1 << 20;
  SimTime idle_timeout = sec(60);
  // A flow that has seen FIN/RST lingers briefly to absorb retransmissions.
  SimTime closing_linger = ms(50);
  SimTime sweep_interval = sec(1);
};

INBAND_SHARD_LOCAL(lb)
class ConnTracker {
 public:
  explicit ConnTracker(ConntrackConfig config = {});

  // Returns the backend for `flow`, or kNoBackend on miss. Refreshes the
  // entry's last-seen time on hit.
  BackendId lookup(const FlowKey& flow, SimTime now);

  // Inserts or overwrites the mapping.
  void insert(const FlowKey& flow, BackendId backend, SimTime now);

  // Marks the flow as closing (entry expires after closing_linger).
  // Returns true only on the transition (false if absent or already closing),
  // so callers can fire close-hooks exactly once per flow.
  bool mark_closing(const FlowKey& flow, SimTime now);

  // Removes expired entries; called opportunistically by the LB.
  void sweep(SimTime now);

  std::size_t size() const { return map_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t expirations() const { return expirations_; }

  // Live (non-closing) connections per backend id.
  std::vector<std::size_t> connections_per_backend() const;

  // Invariant audit: capacity bound holds, every entry's timestamps are in
  // the past, and closing entries carry a close mark. When `backend_limit`
  // is not kNoBackend, every pinned backend id must be below it (the LB
  // passes its pool size — forwarding indexes an array with this id).
  void audit_invariants(AuditScope& scope,
                        BackendId backend_limit = kNoBackend) const;

  // Order-independent digest of the whole table plus counters.
  void digest_state(StateDigest& digest) const;

 private:
  struct Entry {
    BackendId backend;
    SimTime last_seen;
    bool closing = false;
    SimTime close_marked = kNoTime;
  };

  bool expired(const Entry& e, SimTime now) const;
  void evict_one(SimTime now);

  ConntrackConfig config_;
  OpenHashMap<FlowKey, Entry> map_;
  SimTime last_sweep_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t expirations_ = 0;
};

}  // namespace inband
