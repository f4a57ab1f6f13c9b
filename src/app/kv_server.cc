#include "app/kv_server.h"

#include <algorithm>

#include "util/assert.h"
#include "util/logging.h"
#include "util/sorted_view.h"

namespace inband {

KvServer::KvServer(TcpHost& host, KvServerConfig config)
    : host_{host},
      config_{config},
      rng_{splitmix64(config.seed ^ 0x5e57e5ULL)} {
  INBAND_ASSERT(config_.workers > 0);
  host_.stack().listen(config_.port,
                       [this](TcpConnection& conn) { on_accept(conn); });
}

void KvServer::add_injector(std::unique_ptr<VariabilityInjector> injector) {
  INBAND_ASSERT(injector != nullptr);
  // Each injector gets its own stream, keyed by the server seed and the
  // attachment index. Injectors drawing from the server's stream would make
  // one entity's draw history depend on another's call pattern — exactly the
  // cross-entity coupling a per-shard digest cannot tolerate.
  injector->seed_stream(
      splitmix64(config_.seed ^ (0x16a3ec7ULL + injectors_.size())));
  injectors_.push_back(std::move(injector));
}

void KvServer::abort_all_connections() {
  queue_.clear();
  // abort() triggers on_closed, which erases from open_conns_; iterate a
  // snapshot. Sort it by flow key: the abort order fixes the order RSTs hit
  // the wire, so it must not follow the table's slot order.
  std::vector<TcpConnection*> conns;
  for (const auto* e : sorted_entries(open_conns_)) conns.push_back(e->second);
  for (auto* conn : conns) conn->abort();
}

void KvServer::on_accept(TcpConnection& conn) {
  open_conns_.emplace(conn.key(), &conn);
  conn.callbacks().on_message = [this](TcpConnection& c,
                                       const PayloadRef& payload) {
    on_request(c, payload);
  };
  conn.callbacks().on_peer_close = [](TcpConnection& c) { c.close(); };
  conn.callbacks().on_closed = [this](TcpConnection& c, bool /*reset*/) {
    open_conns_.erase(c.key());
  };
}

bool KvServer::still_open(const Pending& work) const {
  const auto it = open_conns_.find(work.key);
  return it != open_conns_.end() && it->second == work.conn;
}

void KvServer::on_request(TcpConnection& conn, const PayloadRef& request) {
  INBAND_ASSERT(payload_as<KvMessage>(request).kind == KvKind::kRequest);
  Pending work{&conn, conn.key(), request};
  if (busy_workers_ < config_.workers) {
    start_processing(std::move(work));
  } else {
    queue_.push(std::move(work));
    max_queue_depth_ = std::max(max_queue_depth_, queue_.size());
  }
}

SimTime KvServer::service_time(const KvMessage& request) {
  SimTime svc =
      request.op == KvOp::kGet ? config_.get_base : config_.set_base;
  if (config_.service_sigma > 0.0) {
    svc = static_cast<SimTime>(rng_.lognormal_median(
        static_cast<double>(svc), config_.service_sigma));
  }
  const SimTime now = host_.sim().now();
  for (auto& inj : injectors_) {
    svc += inj->extra_service_time(now);
  }
  return std::max<SimTime>(svc, 1);
}

void KvServer::account_busy(SimTime now, int delta) {
  busy_integral_ns_ += static_cast<double>(busy_workers_) *
                       static_cast<double>(now - busy_last_change_);
  busy_last_change_ = now;
  busy_workers_ += delta;
  INBAND_DCHECK(busy_workers_ >= 0 && busy_workers_ <= config_.workers);
}

double KvServer::busy_worker_seconds(SimTime now) const {
  return (busy_integral_ns_ + static_cast<double>(busy_workers_) *
                                  static_cast<double>(now - busy_last_change_)) /
         1e9;
}

void KvServer::start_processing(Pending work) {
  const SimTime now = host_.sim().now();
  SimTime start_at = now;
  for (auto& inj : injectors_) {
    start_at = std::max(start_at, inj->frozen_until(now));
  }
  const SimTime svc = service_time(payload_as<KvMessage>(work.request));
  account_busy(now, +1);
  auto done = [this, w = std::move(work)]() mutable { finish(std::move(w)); };
  // One completion per request: it must stay in the event slot's buffer.
  static_assert(EventCallback::fits_inline<decltype(done)>());
  host_.sim().schedule_at(start_at + svc, std::move(done));
}

void KvServer::finish(Pending work) {
  const SimTime now = host_.sim().now();
  account_busy(now, -1);

  const KvMessage& req = payload_as<KvMessage>(work.request);
  bool hit = false;
  std::uint32_t value_len = 0;
  if (req.op == KvOp::kSet) {
    // hotlint:allow(hot-growth): KV write; keyspace bounded by the workload
    store_[req.key] = req.value_len;
    ++sets_;
  } else {
    const auto it = store_.find(req.key);
    hit = it != store_.end();
    if (hit) {
      value_len = it->second;
      ++hits_;
    }
    ++gets_;
  }
  ++requests_served_;

  // The connection may have died while the request was in service.
  if (still_open(work) && work.conn->can_send()) {
    const KvMessage resp = make_kv_response(req, hit, value_len);
    work.conn->send_message(msg_pool_.make(resp), kv_response_wire_size(resp));
  }

  if (!queue_.empty() && busy_workers_ < config_.workers) {
    Pending next = std::move(queue_.front());
    queue_.pop();
    // Dead connections may sit in the queue; drop their work.
    while (!still_open(next)) {
      if (queue_.empty()) return;
      next = std::move(queue_.front());
      queue_.pop();
    }
    start_processing(std::move(next));
  }
}

}  // namespace inband
