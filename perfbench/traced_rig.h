// Outside-in traced replica of ClusterRig.
//
// Builds the same topology as ClusterRig from the library's public classes,
// in ClusterRig's construction order and with its seeds, but with a timed
// subclass or wrapper at each layer's overridable entry point:
//   * TcpHost and LoadBalancer subclasses whose handle_batch calls the base;
//   * a RoutingPolicy wrapper forwarding every virtual to InbandLbPolicy;
//   * a SendInterceptor wrapper around FaultLayer, installed after the
//     FaultLayer constructor has installed itself.
// The rig drives Simulator::step() itself, one span per step, exactly as
// Simulator::run_until() would. The simulation is therefore unchanged, and
// state_digest() must equal ClusterRig::state_digest() for the same config;
// the driver fails the run when it does not.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "scenario/cluster_rig.h"
#include "span_ledger.h"

namespace perfbench {

// Host clock for spans, in nanoseconds.
std::int64_t host_now_ns();

class TracedRig {
 public:
  // Only LbMode::kInband with a single LB tier is supported.
  TracedRig(const inband::ClusterRigConfig& config, SpanLedger& ledger);
  ~TracedRig();
  TracedRig(const TracedRig&) = delete;
  TracedRig& operator=(const TracedRig&) = delete;

  // start(), the traced drive to config.duration, finish(). The ledger's
  // traced interval is the drive.
  void run();

  // ClusterRig::state_digest() over this rig's state.
  std::uint64_t state_digest();

  // Most events pending after any step of the drive.
  std::size_t pending_max() const { return pending_max_; }

 private:
  struct Parts;

  inband::ClusterRigConfig config_;
  SpanLedger& ledger_;
  inband::Simulator sim_;
  inband::Network net_;
  std::unique_ptr<Parts> parts_;
  std::size_t pending_max_ = 0;
};

}  // namespace perfbench
