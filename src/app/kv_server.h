// memcached-flavoured key-value server model.
//
// Serves GET/SET over the TCP model with a bounded worker pool: up to
// `workers` requests are processed concurrently; the rest queue FIFO, so
// latency rises with load exactly the way a thread-per-worker cache does.
// Per-request service time is
//     base(op) + per_byte * value_len, jittered log-normally,
// plus whatever the attached VariabilityInjectors contribute (§2.2).
//
// Under direct server return the server answers straight to the client; in
// the simulation that falls out naturally because responses are routed by
// the flow's destination address, which never points at the LB.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "app/message.h"
#include "app/variability.h"
#include "tcp/stack.h"
#include "util/hotpath.h"
#include "util/open_hash_map.h"
#include "util/ring_buffer.h"
#include "util/rng.h"
#include "util/shard.h"
#include "util/shared_pool.h"

namespace inband {

struct KvServerConfig {
  std::uint16_t port = 11211;
  int workers = 4;
  SimTime get_base = us(15);
  SimTime set_base = us(20);
  SimTime per_byte = 0;           // ns per value byte (copy cost)
  double service_sigma = 0.05;    // log-normal jitter of the base cost
  std::uint64_t seed = 1;
};

INBAND_SHARD_LOCAL(shard)
class KvServer {
 public:
  KvServer(TcpHost& host, KvServerConfig config);
  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  // Injectors apply in attachment order. The server takes ownership.
  void add_injector(std::unique_ptr<VariabilityInjector> injector);

  // Crash simulation: RSTs every open connection and drops queued work.
  // The listener stays up (as after a process restart under a supervisor).
  void abort_all_connections();

  // --- stats ---
  std::uint64_t requests_served() const { return requests_served_; }
  std::uint64_t gets() const { return gets_; }
  std::uint64_t sets() const { return sets_; }
  std::uint64_t hits() const { return hits_; }
  std::size_t queue_depth() const { return queue_.size(); }
  std::size_t max_queue_depth() const { return max_queue_depth_; }
  int busy_workers() const { return busy_workers_; }
  std::size_t store_size() const { return store_.size(); }
  std::size_t open_connections() const { return open_conns_.size(); }
  // Integral of busy workers over time, for utilization reporting.
  double busy_worker_seconds(SimTime now) const;

  const KvServerConfig& config() const { return config_; }

 private:
  struct Pending {
    TcpConnection* conn;
    std::shared_ptr<const KvMessage> request;
  };

  void on_accept(TcpConnection& conn);
  INBAND_HOT void on_request(TcpConnection& conn,
                             std::shared_ptr<const KvMessage> request);
  void start_processing(Pending work);
  INBAND_HOT void finish(Pending work);
  SimTime service_time(const KvMessage& request);
  void account_busy(SimTime now, int delta);

  TcpHost& host_;
  KvServerConfig config_;
  Rng rng_;
  SharedPool<KvMessage> msg_pool_;  // recycles response objects
  std::vector<std::unique_ptr<VariabilityInjector>> injectors_;
  OpenHashMap<std::uint64_t, std::uint32_t> store_;  // key -> size
  std::unordered_set<TcpConnection*> open_conns_;
  RingBuffer<Pending> queue_;  // overload FIFO, slots recycled in place
  int busy_workers_ = 0;

  std::uint64_t requests_served_ = 0;
  std::uint64_t gets_ = 0;
  std::uint64_t sets_ = 0;
  std::uint64_t hits_ = 0;
  std::size_t max_queue_depth_ = 0;
  double busy_integral_ns_ = 0.0;
  SimTime busy_last_change_ = 0;
};

}  // namespace inband
