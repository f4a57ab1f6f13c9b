// Connection 5-tuple identification.
//
// FlowKey is the identifier an L4 load balancer keys everything on: the
// conntrack table, the per-flow estimator state, and TCP demultiplexing.
// Hashing mixes all tuple fields through splitmix64 — cheap, and good enough
// that Maglev slot selection and conntrack bucketing are unbiased in tests.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/address.h"
#include "util/open_hash_map.h"
#include "util/rng.h"
#include "util/shard.h"

namespace inband {

enum class IpProto : std::uint8_t { kTcp = 6, kUdp = 17 };

INBAND_SHARD_LOCAL(owner)
struct FlowKey {
  Endpoint src;
  Endpoint dst;
  IpProto proto = IpProto::kTcp;

  friend bool operator==(const FlowKey&, const FlowKey&) = default;
  // Total order by (src, dst, proto). Flow-keyed tables are unordered for
  // speed; whenever their contents must be visited in a reproducible order
  // (audits, crash-abort sweeps), this ordering is the sort key — see
  // util/sorted_view.h and DESIGN.md §9.
  friend auto operator<=>(const FlowKey&, const FlowKey&) = default;

  // The same connection seen from the opposite direction.
  FlowKey reversed() const { return FlowKey{dst, src, proto}; }
};

inline std::uint64_t hash_flow(const FlowKey& f, std::uint64_t seed = 0) {
  std::uint64_t h = seed;
  h = splitmix64(h ^ (static_cast<std::uint64_t>(f.src.addr) << 16 |
                      f.src.port));
  h = splitmix64(h ^ (static_cast<std::uint64_t>(f.dst.addr) << 16 |
                      f.dst.port));
  h = splitmix64(h ^ static_cast<std::uint64_t>(f.proto));
  return h;
}

std::string format_flow(const FlowKey& f);

struct FlowKeyHash {
  std::size_t operator()(const FlowKey& f) const noexcept {
    return static_cast<std::size_t>(hash_flow(f));
  }
};

// OpenHashMap key hash: the packed tuple folded through one multiply. The
// table's own Fibonacci step does the final mixing, so this stays cheaper
// than hash_flow, which Maglev slot selection and the digests keep using.
template <>
struct OpenHash<FlowKey> {
  std::uint64_t operator()(const FlowKey& f) const noexcept {
    const std::uint64_t src =
        (static_cast<std::uint64_t>(f.src.addr) << 16) | f.src.port;
    const std::uint64_t dst =
        (static_cast<std::uint64_t>(f.dst.addr) << 16) | f.dst.port;
    return (src * 0xff51afd7ed558ccdULL) ^ dst ^
           (static_cast<std::uint64_t>(f.proto) << 56);
  }
};

}  // namespace inband
