// Integration tests: the full rigs behind the paper's figures, at reduced
// scale so they run in seconds. These assert the *shapes* the paper reports:
// estimator accuracy and tracking (Fig. 2), and the latency-aware LB beating
// static Maglev after a delay injection (Fig. 3).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/ensemble_timeout.h"
#include "core/fixed_timeout.h"
#include "scenario/backlogged_rig.h"
#include "scenario/cluster_rig.h"
#include "scenario/metrics.h"

namespace inband {
namespace {

// --- metrics helpers ---

TEST(Metrics, RelativeErrorsAgainstStepFunction) {
  std::vector<Sample> truth{{0, 100}, {ms(1), 200}};
  std::vector<Sample> est{{us(500), 110}, {ms(2), 100}};
  const auto errs = relative_errors(est, truth);
  ASSERT_EQ(errs.size(), 2u);
  EXPECT_NEAR(errs[0], 0.10, 1e-9);
  EXPECT_NEAR(errs[1], 0.50, 1e-9);
}

TEST(Metrics, EstimatesBeforeTruthSkipped) {
  std::vector<Sample> truth{{ms(1), 100}};
  std::vector<Sample> est{{0, 50}, {ms(2), 100}};
  EXPECT_EQ(relative_errors(est, truth).size(), 1u);
}

TEST(Metrics, WindowedStats) {
  std::vector<Sample> s{{0, 10}, {us(1), 20}, {ms(1), 1000}};
  EXPECT_DOUBLE_EQ(mean_in_window(s, 0, ms(1)), 15.0);
  EXPECT_DOUBLE_EQ(percentile_in_window(s, 0, ms(2), 1.0), 1000.0);
  EXPECT_DOUBLE_EQ(mean_in_window(s, ms(5), ms(6)), 0.0);
}

// --- Fig. 2 rig ---

class BackloggedRigTest : public testing::Test {
 protected:
  static BackloggedRigConfig small_config() {
    BackloggedRigConfig cfg;
    cfg.duration = ms(1200);
    cfg.step_time = ms(600);
    cfg.step_extra = us(1500);
    return cfg;
  }
};

TEST_F(BackloggedRigTest, ProducesTrafficAndGroundTruth) {
  BackloggedRig rig{small_config()};
  rig.run();
  EXPECT_GT(rig.arrivals().size(), 1000u);
  EXPECT_GT(rig.ground_truth().size(), 500u);
  // Arrivals are monotone.
  for (std::size_t i = 1; i < rig.arrivals().size(); ++i) {
    EXPECT_LE(rig.arrivals()[i - 1], rig.arrivals()[i]);
  }
}

TEST_F(BackloggedRigTest, GroundTruthShowsTheStep) {
  BackloggedRig rig{small_config()};
  rig.run();
  const auto& gt = rig.ground_truth();
  const double before = mean_in_window(gt, ms(100), ms(500));
  const double after = mean_in_window(gt, ms(700), ms(1100));
  // ~210us RTT before; +1.5ms after.
  EXPECT_GT(before, static_cast<double>(us(180)));
  EXPECT_LT(before, static_cast<double>(us(300)));
  EXPECT_GT(after, before + static_cast<double>(us(1200)));
}

TEST_F(BackloggedRigTest, RttNeverBeatsThePropagationFloor) {
  BackloggedRig rig{small_config()};
  rig.run();
  // Sender->LB 50us + LB->receiver 50us + receiver->sender 100us: jitter only
  // ever adds to the 200us floor, and mostly adds little.
  SimTime lo = kEndOfTime;
  std::size_t counted = 0;
  for (const Sample& s : rig.ground_truth()) {
    if (s.t >= ms(600)) break;  // before the step
    EXPECT_GE(s.value, us(200)) << "at " << s.t;
    lo = std::min(lo, s.value);
    ++counted;
  }
  ASSERT_GT(counted, 100u);
  EXPECT_LT(lo, us(220));
}

TEST_F(BackloggedRigTest, EnsembleTracksStepFixedDoesNot) {
  BackloggedRig rig{small_config()};
  rig.run();

  // Offline replay of the LB-observed arrivals through the estimators.
  EnsembleTimeout ensemble{{}};
  EnsembleState es;
  std::vector<Sample> ens_samples;
  FixedTimeout fixed_low{us(64)};
  FixedTimeoutState fl;
  std::vector<Sample> low_samples;
  FixedTimeout fixed_high{us(1024)};
  FixedTimeoutState fh;
  std::vector<Sample> high_samples;

  for (SimTime t : rig.arrivals()) {
    if (SimTime v = ensemble.on_packet(es, t); v != kNoTime) {
      ens_samples.push_back({t, v});
    }
    if (SimTime v = fixed_low.on_packet(fl, t); v != kNoTime) {
      low_samples.push_back({t, v});
    }
    if (SimTime v = fixed_high.on_packet(fh, t); v != kNoTime) {
      high_samples.push_back({t, v});
    }
  }

  // Drop estimator warm-up (first epoch) before scoring.
  auto after_warmup = [](const std::vector<Sample>& v) {
    std::vector<Sample> out;
    for (const auto& s : v) {
      if (s.t > ms(128)) out.push_back(s);
    }
    return out;
  };
  const auto ens_acc =
      summarize_accuracy(after_warmup(ens_samples), rig.ground_truth());
  const auto low_acc =
      summarize_accuracy(after_warmup(low_samples), rig.ground_truth());

  ASSERT_GT(ens_acc.samples, 100u);
  // The paper's claim: the ensemble tracks the truth closely; a bad fixed
  // timeout is wildly off (the 64us band in Fig. 2a).
  EXPECT_LT(ens_acc.median_rel_error, 0.25);
  EXPECT_GT(low_acc.median_rel_error, 0.5);

  // And the too-high fixed timeout produces far fewer samples before the
  // step than the ensemble does in the same interval (it merges batches).
  const auto count_before = [](const std::vector<Sample>& v, SimTime cut) {
    std::size_t n = 0;
    for (const auto& s : v) n += s.t < cut ? 1 : 0;
    return n;
  };
  EXPECT_LT(count_before(high_samples, ms(600)),
            count_before(ens_samples, ms(600)) / 2);
}

TEST_F(BackloggedRigTest, DelayedAckStillObservable) {
  auto cfg = small_config();
  cfg.delayed_ack = true;
  BackloggedRig rig{cfg};
  rig.run();
  EXPECT_GT(rig.arrivals().size(), 500u);
  EXPECT_GT(rig.ground_truth().size(), 100u);
}

// --- Fig. 3 rig ---

ClusterRigConfig small_cluster(LbMode mode) {
  ClusterRigConfig cfg;
  cfg.mode = mode;
  cfg.duration = sec(4);
  cfg.inject_time = sec(2);
  cfg.inject_extra = ms(1);
  cfg.num_client_hosts = 2;
  cfg.client.connections = 4;
  cfg.client.pipeline = 4;
  cfg.client.requests_per_conn = 50;
  cfg.server.workers = 8;
  cfg.maglev_table_size = 1021;
  cfg.share_sample_interval = ms(5);
  // Controller tuned as in the benches.
  cfg.inband.ensemble.epoch = ms(16);
  cfg.inband.controller.min_samples = 3;
  cfg.inband.controller.cooldown = ms(1);
  cfg.inband.tracker.ewma_tau = ms(2);
  return cfg;
}

TEST(ClusterRig, StaticMaglevStaysInflamed) {
  ClusterRig rig{small_cluster(LbMode::kStaticMaglev)};
  rig.run();
  const auto get = rig.get_latency_samples();
  ASSERT_GT(get.size(), 1000u);
  const double p95_before =
      percentile_in_window(get, sec(1), sec(2), 0.95);
  const double p95_after =
      percentile_in_window(get, sec(3), sec(4), 0.95);
  // Tail inflated by roughly the injected 1ms and it never recovers.
  EXPECT_GT(p95_after, p95_before + static_cast<double>(us(700)));
}

TEST(ClusterRig, InbandShiftsTrafficAndRecovers) {
  ClusterRig rig{small_cluster(LbMode::kInband)};
  rig.run();
  auto* policy = rig.inband_policy();
  ASSERT_NE(policy, nullptr);

  // Traffic shifted off the victim.
  EXPECT_GT(policy->controller().shifts(), 0u);
  EXPECT_LT(policy->table().slots_owned(0),
            policy->table().slots_owned(1) / 4);

  // Reaction: first shift lands within a few ms of the injection.
  ASSERT_FALSE(policy->shift_history().empty());
  SimTime first_shift = kNoTime;
  for (const auto& ev : policy->shift_history()) {
    if (ev.t >= sec(2)) {
      first_shift = ev.t;
      break;
    }
  }
  ASSERT_NE(first_shift, kNoTime);
  EXPECT_LT(first_shift - sec(2), ms(50));

  // Tail latency after the injection settles well below the injected 1ms.
  const auto get = rig.get_latency_samples();
  const double p95_late = percentile_in_window(get, ms(3500), sec(4), 0.95);
  EXPECT_LT(p95_late, static_cast<double>(ms(1)));
}

TEST(ClusterRig, InbandBeatsStaticAfterInjection) {
  ClusterRig maglev{small_cluster(LbMode::kStaticMaglev)};
  maglev.run();
  ClusterRig inband{small_cluster(LbMode::kInband)};
  inband.run();
  const double p95_maglev = percentile_in_window(
      maglev.get_latency_samples(), sec(3), sec(4), 0.95);
  const double p95_inband = percentile_in_window(
      inband.get_latency_samples(), sec(3), sec(4), 0.95);
  EXPECT_LT(p95_inband, p95_maglev * 0.7);
}

TEST(ClusterRig, DeterministicAcrossRuns) {
  ClusterRig a{small_cluster(LbMode::kInband)};
  a.run();
  ClusterRig b{small_cluster(LbMode::kInband)};
  b.run();
  ASSERT_EQ(a.records().size(), b.records().size());
  for (std::size_t i = 0; i < a.records().size(); i += 97) {
    EXPECT_EQ(a.records()[i].latency, b.records()[i].latency) << i;
    EXPECT_EQ(a.records()[i].sent_at, b.records()[i].sent_at) << i;
  }
  EXPECT_EQ(a.inband_policy()->controller().shifts(),
            b.inband_policy()->controller().shifts());
}

TEST(ClusterRig, BaselinePoliciesServeTraffic) {
  for (LbMode mode : {LbMode::kRoundRobin, LbMode::kLeastConn,
                      LbMode::kWeightedRandom}) {
    ClusterRigConfig cfg = small_cluster(mode);
    cfg.duration = sec(1);
    cfg.inject_time = sec(5);  // never
    ClusterRig rig{cfg};
    rig.run();
    EXPECT_GT(rig.records().size(), 500u) << lb_mode_name(mode);
    // Both servers got work.
    EXPECT_GT(rig.server(0).requests_served(), 100u) << lb_mode_name(mode);
    EXPECT_GT(rig.server(1).requests_served(), 100u) << lb_mode_name(mode);
  }
}

TEST(ClusterRig, ConnectionsSurviveShifts) {
  // Per-connection consistency: no resets seen by clients even while the
  // table is being rewritten underneath.
  ClusterRig rig{small_cluster(LbMode::kInband)};
  rig.run();
  for (int c = 0; c < rig.num_clients(); ++c) {
    EXPECT_EQ(rig.client(c).connection_failures(), 0u);
  }
}

TEST(ClusterRig, MultiLbSharesServers) {
  ClusterRigConfig cfg = small_cluster(LbMode::kInband);
  cfg.num_lbs = 2;
  cfg.num_client_hosts = 2;  // one per LB
  cfg.duration = sec(2);
  cfg.inject_time = sec(1);
  ClusterRig rig{cfg};
  rig.run();
  ASSERT_EQ(rig.num_lbs(), 2);
  // Both LBs forwarded traffic and both reacted to the shared slow server.
  for (int l = 0; l < 2; ++l) {
    EXPECT_GT(rig.lb(l).counters().value("lb.packets_forwarded"), 1000u);
    ASSERT_NE(rig.inband_policy(l), nullptr);
    EXPECT_GT(rig.inband_policy(l)->samples_total(), 100u);
  }
}


// --- §5(1): far clients and flow-floor normalization ---

TEST(FarClients, AbsoluteScoringDrainsHealthyServers) {
  ClusterRigConfig cfg = small_cluster(LbMode::kInband);
  cfg.num_client_hosts = 4;
  cfg.client_extra_distance = {0, 0, 0, ms(1)};  // client 3 is far
  cfg.inject_time = sec(100);                    // no fault at all
  cfg.duration = sec(3);
  ClusterRig rig{cfg};
  rig.run();
  auto* policy = rig.inband_policy();
  // Every shift is spurious (there is no slow server).
  EXPECT_GT(policy->controller().shifts(), 0u);
}

TEST(FarClients, FlowFloorNormalizationPreventsSpuriousShifts) {
  ClusterRigConfig cfg = small_cluster(LbMode::kInband);
  cfg.num_client_hosts = 4;
  cfg.client_extra_distance = {0, 0, 0, ms(1)};
  cfg.inject_time = sec(100);
  cfg.duration = sec(3);
  cfg.inband.normalize_client_floor = true;
  ClusterRig rig{cfg};
  rig.run();
  auto* policy = rig.inband_policy();
  EXPECT_EQ(policy->controller().shifts(), 0u);
  // Shares stay balanced.
  const auto shares = policy->table().shares();
  EXPECT_NEAR(shares[0], 0.5, 0.05);
}

TEST(FarClients, FlowFloorStillReactsToRealFault) {
  ClusterRigConfig cfg = small_cluster(LbMode::kInband);
  cfg.num_client_hosts = 4;
  cfg.client_extra_distance = {0, 0, 0, ms(1)};
  cfg.inband.normalize_client_floor = true;  // normalization on
  ClusterRig rig{cfg};                      // real 1ms fault at t=2s
  rig.run();
  auto* policy = rig.inband_policy();
  EXPECT_GT(policy->controller().shifts(), 0u);
  EXPECT_LT(policy->table().slots_owned(0),
            policy->table().slots_owned(1) / 4);
}

// --- jitter does not break determinism ---

TEST(BackloggedRigTest2, JitteredRunsAreDeterministic) {
  BackloggedRigConfig cfg;
  cfg.duration = ms(300);
  BackloggedRig a{cfg};
  a.run();
  BackloggedRig b{cfg};
  b.run();
  ASSERT_EQ(a.arrivals().size(), b.arrivals().size());
  for (std::size_t i = 0; i < a.arrivals().size(); i += 131) {
    EXPECT_EQ(a.arrivals()[i], b.arrivals()[i]) << i;
  }
  ASSERT_EQ(a.ground_truth().size(), b.ground_truth().size());
}

TEST(BackloggedRigTest2, SeedChangesJitteredTimeline) {
  BackloggedRigConfig cfg;
  cfg.duration = ms(300);
  BackloggedRig a{cfg};
  a.run();
  cfg.seed = 43;
  BackloggedRig b{cfg};
  b.run();
  // Same macro behaviour, different micro timings.
  bool any_difference = a.arrivals().size() != b.arrivals().size();
  for (std::size_t i = 0;
       !any_difference && i < std::min(a.arrivals().size(),
                                       b.arrivals().size());
       ++i) {
    any_difference = a.arrivals()[i] != b.arrivals()[i];
  }
  EXPECT_TRUE(any_difference);
}


// --- handshake bootstrap in the cluster ---

TEST(ClusterRig, HandshakeBootstrapProducesEarlySamples) {
  ClusterRigConfig cfg = small_cluster(LbMode::kInband);
  cfg.duration = sec(2);
  cfg.inject_time = sec(10);  // no fault
  cfg.inband.use_handshake_bootstrap = true;
  ClusterRig rig{cfg};
  rig.run();
  auto* policy = rig.inband_policy();
  // Churned connections hand the LB one handshake sample each.
  EXPECT_GT(policy->handshake_samples(), 50u);
  // And the bootstrap did not destabilize anything: no spurious shifts.
  EXPECT_EQ(policy->controller().shifts(), 0u);
}

// --- backend health churn under live traffic (§2.5) ---

TEST(ClusterRig, HealthFlapDoesNotBreakConnections) {
  ClusterRigConfig cfg = small_cluster(LbMode::kStaticMaglev);
  cfg.duration = sec(3);
  cfg.inject_time = sec(10);  // no latency fault; we flap health instead
  ClusterRig rig{cfg};
  // Mark server 0 unhealthy at 1s and healthy again at 2s.
  rig.sim().schedule_at(sec(1), [&] { rig.lb().set_backend_health(0, false); });
  rig.sim().schedule_at(sec(2), [&] { rig.lb().set_backend_health(0, true); });
  rig.run();
  // Existing connections drained gracefully: no client saw a reset.
  for (int c = 0; c < rig.num_clients(); ++c) {
    EXPECT_EQ(rig.client(c).connection_failures(), 0u);
  }
  // While unhealthy, new flows avoided server 0 (its request rate sagged).
  const auto get = rig.get_latency_samples();
  EXPECT_GT(get.size(), 1000u);
  // After restoration both servers serve again.
  EXPECT_GT(rig.server(0).requests_served(), 1000u);
  EXPECT_GT(rig.server(1).requests_served(), 1000u);
}

}  // namespace
}  // namespace inband
