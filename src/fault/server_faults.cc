#include "fault/server_faults.h"

#include <algorithm>
#include <memory>

#include "util/assert.h"
#include "util/logging.h"

namespace inband {

ScheduledFreezeInjector::ScheduledFreezeInjector(std::vector<Window> windows)
    : windows_{std::move(windows)} {
  for (const auto& w : windows_) {
    INBAND_ASSERT(w.start >= 0 && w.end > w.start,
                  "freeze window must be ordered");
  }
}

SimTime ScheduledFreezeInjector::frozen_until(SimTime now) {
  SimTime until = 0;
  for (const auto& w : windows_) {
    if (now >= w.start && now < w.end) until = std::max(until, w.end);
  }
  return until;
}

void apply_server_faults(const FaultPlan& plan, Simulator& sim,
                         FaultLayer& layer,
                         const std::vector<KvServer*>& servers) {
  // One freeze injector per server covering all its fault windows.
  std::vector<std::vector<ScheduledFreezeInjector::Window>> windows(
      servers.size());
  for (const auto& sf : plan.servers) {
    INBAND_ASSERT(static_cast<std::size_t>(sf.server) < servers.size(),
                  "server fault names a missing server");
    windows[static_cast<std::size_t>(sf.server)].push_back({sf.at, sf.until});

    const bool crash = sf.kind == ServerFaultSpec::Kind::kCrash;
    sim.schedule_at(sf.at, [&layer, &sim, crash, sf, servers] {
      if (crash) {
        servers[static_cast<std::size_t>(sf.server)]->abort_all_connections();
        layer.record_server_event(FaultEvent::Kind::kServerCrash, sf.server);
        LOG_INFO() << '[' << format_duration(sim.now()) << "] fault: server"
                   << sf.server << " crashed (restart at "
                   << format_duration(sf.until) << ")";
        sim.schedule_at(sf.until, [&layer, sf] {
          layer.record_server_event(FaultEvent::Kind::kServerRestart,
                                    sf.server);
        });
      } else {
        layer.record_server_event(FaultEvent::Kind::kServerStall, sf.server);
        LOG_INFO() << '[' << format_duration(sim.now()) << "] fault: server"
                   << sf.server << " stalled until "
                   << format_duration(sf.until);
      }
    });
  }
  for (std::size_t s = 0; s < servers.size(); ++s) {
    if (windows[s].empty()) continue;
    servers[s]->add_injector(
        std::make_unique<ScheduledFreezeInjector>(std::move(windows[s])));
  }
}

}  // namespace inband
