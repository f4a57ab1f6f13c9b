// Controller-conformance suite: every WeightController registered in the
// zoo (core/controller_zoo.h) is held to the same laws, whatever its control
// strategy:
//
//  * decisions are well-formed — a weight vector is non-negative, normalized
//    and full-width; a shift names a real victim with fraction in (0, 1];
//  * no healthy-server starvation — under a persistent skew every backend
//    keeps a strictly positive share (the weight-vector laws keep their
//    configured floor; the α law's drain is bounded by what it is fed);
//  * purity/determinism — two instances fed the identical (samples, weights)
//    stream emit the identical decision stream and identical digest_state,
//    and two same-seed cluster-rig runs produce the same rig digest;
//  * registry sanity — names round-trip and the factory builds what it says.
//
// A controller added to controller_registry() is automatically subjected to
// all of this; nothing here names a concrete law except the registry test.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "check/state_digest.h"
#include "core/controller_zoo.h"
#include "core/gradient_controller.h"
#include "core/server_latency_tracker.h"
#include "core/shortest_queue_controller.h"
#include "fault/fault_plan.h"
#include "pinned_digests.h"
#include "scenario/cluster_rig.h"

namespace inband {
namespace {

constexpr std::size_t kBackends = 4;
constexpr SimTime kTick = us(500);
constexpr int kSteps = 400;  // 200ms of stream: plenty of control epochs

// One recorded decision, weight vector deep-copied for later comparison.
struct LoggedDecision {
  int step;
  BackendId from;
  double fraction;
  bool is_vector;
  std::vector<double> weights;
  double worst_score_ns;
  double best_score_ns;
};

// Drives one controller with a deterministic synthetic score stream and the
// abstract policy loop: the current weight vector starts uniform, adopts any
// vector decision wholesale, and applies a shift decision the way the
// shift-slots mechanism does to shares (victim loses `fraction` of total,
// spread evenly over the rest). Backend 0 turns slow mid-stream and stays
// slow — the persistent-skew scenario the starvation law cares about.
std::vector<LoggedDecision> drive(WeightController& controller) {
  ServerLatencyTracker tracker{kBackends};
  std::vector<double> weights(kBackends, 1.0 / kBackends);
  std::vector<LoggedDecision> log;
  for (int step = 0; step < kSteps; ++step) {
    const SimTime now = kTick * (step + 1);
    for (std::size_t b = 0; b < kBackends; ++b) {
      // Deterministic per-backend jitter; backend 0 slow from step 100 on.
      SimTime sample = us(100) + us(7) * static_cast<SimTime>(b) +
                       us((step * 13 + static_cast<int>(b) * 29) % 23);
      if (b == 0 && step >= 100) sample += ms(1);
      tracker.record(static_cast<BackendId>(b), now, sample);
    }
    const auto decision = controller.control_step(tracker, weights, now);
    if (!decision.has_value()) continue;

    LoggedDecision entry;
    entry.step = step;
    entry.from = decision->from;
    entry.fraction = decision->fraction;
    entry.is_vector = decision->is_weight_vector();
    entry.worst_score_ns = decision->worst_score_ns;
    entry.best_score_ns = decision->best_score_ns;
    if (decision->is_weight_vector()) {
      entry.weights = *decision->weights;
      weights = *decision->weights;
    } else {
      // shift_slots share semantics, in the abstract.
      const double taken = decision->fraction;
      weights[decision->from] = std::max(0.0, weights[decision->from] - taken);
      double total = 0.0;
      for (const double w : weights) total += w;
      for (double& w : weights) w /= total;
    }
    log.push_back(std::move(entry));
  }
  return log;
}

class ConformanceTest : public testing::TestWithParam<ControllerKind> {
 protected:
  static std::unique_ptr<WeightController> make() {
    ControllerZooConfig cfg;
    cfg.controller_kind = GetParam();
    // Uniform, mildly aggressive settings so every law actually fires
    // within the 200ms stream.
    cfg.controller.min_samples = 2;
    cfg.controller.cooldown = us(500);
    cfg.knapsack.min_samples = 2;
    cfg.gradient.min_samples = 2;
    cfg.shortest_queue.min_samples = 2;
    return make_controller(cfg);
  }
};

TEST_P(ConformanceTest, DecisionsAreWellFormed) {
  auto controller = make();
  const auto log = drive(*controller);
  ASSERT_FALSE(log.empty()) << controller->name()
                            << " never fired on a 10x persistent skew";
  for (const auto& d : log) {
    EXPECT_LT(d.from, kBackends);
    EXPECT_GE(d.worst_score_ns, d.best_score_ns);
    if (d.is_vector) {
      ASSERT_EQ(d.weights.size(), kBackends);
      double sum = 0.0;
      for (const double w : d.weights) {
        EXPECT_GE(w, 0.0);
        sum += w;
      }
      EXPECT_NEAR(sum, 1.0, 1e-9);
    } else {
      EXPECT_GT(d.fraction, 0.0);
      EXPECT_LE(d.fraction, 1.0);
    }
  }
  EXPECT_EQ(controller->shifts(), log.size());
}

TEST_P(ConformanceTest, NoHealthyServerStarvation) {
  auto controller = make();
  const auto log = drive(*controller);
  ASSERT_FALSE(log.empty());
  // Weight-vector laws must keep every healthy backend above a live floor —
  // the slow server included (it is slow, not dead; starving it would blind
  // the feedback loop to its recovery).
  for (const auto& d : log) {
    if (!d.is_vector) continue;
    for (std::size_t b = 0; b < kBackends; ++b) {
      EXPECT_GE(d.weights[b], 0.015)
          << controller->name() << " starved backend " << b << " at step "
          << d.step;
    }
  }
}

TEST_P(ConformanceTest, PureFunctionOfStreamAndSeed) {
  // Two fresh instances, identical stream: identical decision log and
  // identical internal state digest. This is the purity contract that lets
  // the rig digest-check treat controllers like any other subsystem.
  auto first = make();
  auto second = make();
  const auto log_a = drive(*first);
  const auto log_b = drive(*second);
  ASSERT_EQ(log_a.size(), log_b.size());
  for (std::size_t i = 0; i < log_a.size(); ++i) {
    EXPECT_EQ(log_a[i].step, log_b[i].step);
    EXPECT_EQ(log_a[i].from, log_b[i].from);
    EXPECT_EQ(log_a[i].fraction, log_b[i].fraction);
    EXPECT_EQ(log_a[i].is_vector, log_b[i].is_vector);
    EXPECT_EQ(log_a[i].weights, log_b[i].weights);
    EXPECT_EQ(log_a[i].worst_score_ns, log_b[i].worst_score_ns);
    EXPECT_EQ(log_a[i].best_score_ns, log_b[i].best_score_ns);
  }
  StateDigest da;
  StateDigest db;
  first->digest_state(da);
  second->digest_state(db);
  EXPECT_EQ(da.value(), db.value());
}

TEST_P(ConformanceTest, SameSeedRigRunsReproduce) {
  // Full-loop determinism: the controller inside the real policy, table and
  // traffic. Two same-seed runs must agree on the complete rig digest.
  ClusterRigConfig cfg;
  cfg.mode = LbMode::kInband;
  cfg.inband.controller_kind = GetParam();
  cfg.num_servers = 3;
  cfg.num_client_hosts = 2;
  cfg.duration = ms(300);
  cfg.inject_time = ms(150);
  cfg.seed = 7;
  cfg.client.connections = 4;
  cfg.client.pipeline = 4;
  cfg.server.workers = 8;
  cfg.maglev_table_size = 1021;
  cfg.share_sample_interval = ms(5);
  cfg.inband.ensemble.epoch = ms(16);
  cfg.inband.tracker.ewma_tau = ms(2);
  std::uint64_t digests[2];
  std::uint64_t updates[2];
  for (int run = 0; run < 2; ++run) {
    ClusterRig rig{cfg};
    rig.run();
    digests[run] = rig.state_digest();
    updates[run] = rig.inband_policy()->controller().shifts();
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(updates[0], updates[1]);
}

// --- bit-identity pins ---
//
// The conformance tests above compare two runs of the same build; these pin
// each law's output as constants, so a refactor of the shared decision
// skeleton has to reproduce every decision, weight and internal state bit
// for bit.

// Decision-log pins; the rig pins live in tests/pinned_digests.h with the
// suite's other whole-rig digests.
struct ControllerPins {
  ControllerKind kind;
  std::uint64_t decision_log;  // drive()'s log folded with digest_state
};

constexpr ControllerPins kPins[] = {
    {ControllerKind::kAlphaShift, 0xe82ea54ba61f749eULL},
    {ControllerKind::kKnapsack, 0xb2c6cdee86a8828bULL},
    {ControllerKind::kGradientDescent, 0xa5814f7636821a18ULL},
    {ControllerKind::kShortestQueue, 0xb7ae10c215b2ccccULL},
    {ControllerKind::kShortestQueueStale, 0x93e2b967e3a7419cULL},
};

const ControllerPins& pins_for(ControllerKind kind) {
  for (const auto& p : kPins) {
    if (p.kind == kind) return p;
  }
  ADD_FAILURE() << "no pins for " << controller_kind_name(kind);
  return kPins[0];
}

const pins::AblationRigPins& rig_pins_for(ControllerKind kind) {
  for (const auto& p : pins::kAblationRigs) {
    if (p.kind == kind) return p;
  }
  ADD_FAILURE() << "no rig pins for " << controller_kind_name(kind);
  return pins::kAblationRigs[0];
}

// The cell of bench/ablation_controllers at --quick length (800 ms, seed
// 2022, 3 servers), so the pin covers the zoo exactly as the ablation runs it.
ClusterRigConfig ablation_cell(ControllerKind kind, const FaultPlan& plan) {
  ClusterRigConfig cfg;
  cfg.mode = LbMode::kInband;
  cfg.num_servers = 3;
  cfg.num_client_hosts = 2;
  cfg.duration = ms(800);
  cfg.inject_time = cfg.duration / 2;
  cfg.inject_extra = ms(1);
  cfg.victim = 0;
  cfg.seed = 2022;
  cfg.fault = plan;
  cfg.client.connections = 4;
  cfg.client.pipeline = 4;
  cfg.client.requests_per_conn = 50;
  cfg.server.workers = 8;
  cfg.maglev_table_size = 1021;
  cfg.share_sample_interval = ms(1);
  cfg.audit_interval = 0;
  cfg.inband.ensemble.epoch = ms(16);
  cfg.inband.controller_kind = kind;
  cfg.inband.controller.cooldown = ms(1);
  cfg.inband.controller.min_samples = 3;
  cfg.inband.tracker.ewma_tau = ms(2);
  return cfg;
}

TEST_P(ConformanceTest, DecisionLogAndStatePinned) {
  auto controller = make();
  const auto log = drive(*controller);
  StateDigest digest;
  digest.mix(log.size());
  for (const auto& d : log) {
    digest.mix_i64(d.step);
    digest.mix_u32(d.from);
    digest.mix_double(d.fraction);
    digest.mix_bool(d.is_vector);
    digest.mix(d.weights.size());
    for (const double w : d.weights) digest.mix_double(w);
    digest.mix_double(d.worst_score_ns);
    digest.mix_double(d.best_score_ns);
  }
  controller->digest_state(digest);
  EXPECT_EQ(digest.value(), pins_for(GetParam()).decision_log)
      << std::hex << "0x" << digest.value();
}

TEST_P(ConformanceTest, AblationRigDigestPinned) {
  const pins::AblationRigPins& pins = rig_pins_for(GetParam());
  const FaultPlan clean;
  const FaultPlan noise = make_noise_plan(0.01, 0.01, 0.002, us(20));
  ClusterRig clean_rig{ablation_cell(GetParam(), clean)};
  clean_rig.run();
  EXPECT_EQ(clean_rig.state_digest(), pins.clean)
      << std::hex << "0x" << clean_rig.state_digest();
  ClusterRig noise_rig{ablation_cell(GetParam(), noise)};
  noise_rig.run();
  EXPECT_EQ(noise_rig.state_digest(), pins.noise)
      << std::hex << "0x" << noise_rig.state_digest();
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ConformanceTest, testing::ValuesIn(controller_registry()),
    [](const testing::TestParamInfo<ControllerKind>& param) {
      std::string name = controller_kind_name(param.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --- registry + factory sanity ---

TEST(ControllerRegistry, NamesRoundTripAndAreUnique) {
  const auto& kinds = controller_registry();
  ASSERT_GE(kinds.size(), 4u);  // the zoo the ablation sweeps
  std::vector<std::string> names;
  for (const ControllerKind kind : kinds) {
    const std::string name = controller_kind_name(kind);
    EXPECT_NE(name, "?");
    const auto parsed = controller_kind_from_name(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, kind);
    for (const auto& seen : names) EXPECT_NE(seen, name);
    names.push_back(name);
  }
  EXPECT_FALSE(controller_kind_from_name("no-such-law").has_value());
}

TEST(ControllerRegistry, FactoryBuildsWhatItNames) {
  for (const ControllerKind kind : controller_registry()) {
    ControllerZooConfig cfg;
    cfg.controller_kind = kind;
    const auto controller = make_controller(cfg);
    ASSERT_NE(controller, nullptr);
    EXPECT_STREQ(controller->name(), controller_kind_name(kind));
    EXPECT_EQ(controller->shifts(), 0u);
    EXPECT_EQ(controller->last_shift_time(), kNoTime);
  }
}

TEST(ControllerRegistry, StaleFactoryForcesPositiveRefresh) {
  ControllerZooConfig cfg;
  cfg.controller_kind = ControllerKind::kShortestQueueStale;
  cfg.shortest_queue.view_refresh = 0;  // factory must not build a fresh law
  const auto controller = make_controller(cfg);
  EXPECT_STREQ(controller->name(), "shortest-queue-stale");
}

// --- shared weight-vector helpers ---

TEST(WeightHelpers, FloorAndNormalizeIsScaleInvariant) {
  std::vector<double> a{1e-6, 2e-6, 4e-6};
  std::vector<double> b{1.0, 2.0, 4.0};
  floor_and_normalize(a, 0.05);
  floor_and_normalize(b, 0.05);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
  double sum = 0.0;
  for (const double v : a) {
    EXPECT_GE(v, 0.05);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_LT(a[0], a[1]);
  EXPECT_LT(a[1], a[2]);
}

TEST(WeightHelpers, FloorAndNormalizeDegenerateCollapsesToUniform) {
  std::vector<double> zeros{0.0, 0.0, 0.0, 0.0};
  floor_and_normalize(zeros, 0.02);
  for (const double v : zeros) EXPECT_DOUBLE_EQ(v, 0.25);
  std::vector<double> negatives{-1.0, -2.0};
  floor_and_normalize(negatives, 0.02);
  for (const double v : negatives) EXPECT_DOUBLE_EQ(v, 0.5);
}

TEST(WeightHelpers, FloorClampedSoMassSurvives) {
  // A floor of 0.9 with 4 entries would demand 3.6 of mass; the helper
  // clamps to 1/(2n) and still normalizes.
  std::vector<double> w{1.0, 2.0, 3.0, 4.0};
  floor_and_normalize(w, 0.9);
  double sum = 0.0;
  for (const double v : w) {
    EXPECT_GE(v, 0.125 - 1e-12);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(WeightHelpers, SimplexProjectionProjects) {
  std::vector<double> scratch;
  std::vector<double> w{0.9, 0.4, -0.2};
  project_to_simplex(w, 1.0, scratch);
  double sum = 0.0;
  for (const double v : w) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // A point already on the simplex is a fixed point.
  std::vector<double> fixed{0.2, 0.3, 0.5};
  project_to_simplex(fixed, 1.0, scratch);
  EXPECT_NEAR(fixed[0], 0.2, 1e-12);
  EXPECT_NEAR(fixed[1], 0.3, 1e-12);
  EXPECT_NEAR(fixed[2], 0.5, 1e-12);
  // Interior points shift uniformly, so order is preserved exactly:
  // {0.6, 0.3, 0.5} - tau with tau = 0.4/3.
  std::vector<double> ordered{0.6, 0.3, 0.5};
  project_to_simplex(ordered, 1.0, scratch);
  EXPECT_NEAR(ordered[0], 0.6 - 0.4 / 3.0, 1e-12);
  EXPECT_NEAR(ordered[1], 0.3 - 0.4 / 3.0, 1e-12);
  EXPECT_NEAR(ordered[2], 0.5 - 0.4 / 3.0, 1e-12);
  // Clipping is allowed to create ties at zero: projecting {3, 1, 2} puts
  // all surplus on the max entry.
  std::vector<double> clipped{3.0, 1.0, 2.0};
  project_to_simplex(clipped, 1.0, scratch);
  EXPECT_NEAR(clipped[0], 1.0, 1e-12);
  EXPECT_NEAR(clipped[1], 0.0, 1e-12);
  EXPECT_NEAR(clipped[2], 0.0, 1e-12);
}

TEST(WeightHelpers, L1Distance) {
  EXPECT_DOUBLE_EQ(weight_l1_distance({0.5, 0.5}, {0.5, 0.5}), 0.0);
  EXPECT_DOUBLE_EQ(weight_l1_distance({1.0, 0.0}, {0.0, 1.0}), 2.0);
  EXPECT_DOUBLE_EQ(weight_l1_distance({0.5}, {0.5, 0.25}), 0.25);
}

// --- oscillation / convergence metrics (scenario/metrics.h) ---

TEST(ShareMetrics, TotalVariationSeesOscillationAndRest) {
  std::vector<ShareSnapshot> calm;
  std::vector<ShareSnapshot> herd;
  for (int i = 0; i < 10; ++i) {
    const SimTime t = ms(i);
    calm.push_back({t, {0.5, 0.5}});
    const bool odd = i % 2 == 1;
    herd.push_back({t, {odd ? 0.9 : 0.1, odd ? 0.1 : 0.9}});
  }
  EXPECT_DOUBLE_EQ(
      weight_total_variation_per_epoch(calm, ms(1), 0, ms(10)), 0.0);
  // 9 transitions of L1 distance 1.6 over 10 epochs.
  EXPECT_NEAR(weight_total_variation_per_epoch(herd, ms(1), 0, ms(10)),
              9 * 1.6 / 10.0, 1e-9);
  // Windowing excludes transitions outside [from, to).
  EXPECT_DOUBLE_EQ(
      weight_total_variation_per_epoch(herd, ms(1), ms(4), ms(5)), 0.0);
}

// Issue 10 claimed the per-server step decay was a shift derived from epochs
// capped at kMaxDecayEpochs=63 — UB-adjacent on 64-bit and collapsing the
// step to zero before the documented cap. The law as implemented derives
// eta from min(epochs, cap) through a double sqrt: no shift, no UB, and the
// documented floor is step / sqrt(1 + 63) = step / 8. This regression test
// pins the epoch-63 boundary so neither failure mode can be introduced: at
// and past the cap the capped law's decisions must be bit-equal to a
// constant-step law running at exactly step/8 (the step never decays
// further, never collapses to zero), and strictly larger before the cap.
TEST(GradientDescent, StepDecayFloorsAtStepOverEightAtEpoch63) {
  GradientDescentConfig capped_cfg;
  capped_cfg.epoch = ms(2);
  capped_cfg.min_samples = 1;
  capped_cfg.deadband = 0.0;
  capped_cfg.warmup = 0;
  ASSERT_EQ(GradientDescentController::kMaxDecayEpochs, 63u);
  GradientDescentConfig floor_cfg = capped_cfg;
  floor_cfg.decay_step = false;
  floor_cfg.step = capped_cfg.step / 8.0;  // the documented eta floor
  GradientDescentController capped{capped_cfg};
  GradientDescentController floored{floor_cfg};

  ServerLatencyTracker capped_tracker{2};
  ServerLatencyTracker floored_tracker{2};
  const std::vector<double> uniform{0.5, 0.5};
  int compared_past_cap = 0;
  for (int epoch = 0; epoch < 200; ++epoch) {
    const SimTime now = ms(2) * (epoch + 1);
    for (ServerLatencyTracker* t : {&capped_tracker, &floored_tracker}) {
      t->record(0, now, us(200));  // persistent 2x gap: constant gradient
      t->record(1, now, us(100));
    }
    const std::uint64_t epochs_before = capped.epochs_seen(0);
    const auto a = capped.control_step(capped_tracker, uniform, now);
    const auto b = floored.control_step(floored_tracker, uniform, now);
    ASSERT_TRUE(a.has_value() && b.has_value()) << "epoch " << epoch;
    ASSERT_TRUE(a->is_weight_vector() && b->is_weight_vector());
    const double slow_a = (*a->weights)[0];
    const double slow_b = (*b->weights)[0];
    // Both laws move weight off the slow backend every epoch — the step
    // never collapses to zero, however long the calm stretch.
    EXPECT_LT(slow_a, 0.5);
    if (epochs_before >= 63) {
      // At the cap (and forever after): exactly the floored constant step.
      EXPECT_DOUBLE_EQ(slow_a, slow_b) << "epochs_before=" << epochs_before;
      ++compared_past_cap;
    } else {
      // Before the cap eta is strictly larger, so the capped law moves more.
      EXPECT_LT(slow_a, slow_b) << "epochs_before=" << epochs_before;
    }
  }
  EXPECT_EQ(capped.epochs_seen(0), 200u);
  EXPECT_GT(compared_past_cap, 100);
}

// The first weight vector the shortest-queue law emits for one sample per
// backend at the given latencies.
std::vector<double> shortest_queue_weights(const std::vector<SimTime>& lat) {
  ShortestQueueConfig cfg;
  cfg.deadband = 0.0;
  ShortestQueueController law{cfg};
  ServerLatencyTracker tracker{lat.size()};
  const std::vector<double> uniform(lat.size(),
                                    1.0 / static_cast<double>(lat.size()));
  for (int epoch = 0; epoch < 10; ++epoch) {
    const SimTime now = cfg.epoch * (epoch + 1);
    for (std::size_t b = 0; b < lat.size(); ++b) {
      tracker.record(static_cast<BackendId>(b), now, lat[b]);
    }
    const auto d = law.control_step(tracker, uniform, now);
    if (d.has_value()) {
      EXPECT_TRUE(d->is_weight_vector());
      return *d->weights;
    }
  }
  ADD_FAILURE() << "no decision in 10 epochs";
  return {};
}

TEST(ShortestQueue, SharesAreInverseToLatency) {
  // Plain inverse-latency proportionality: 100us vs 300us splits 3:1.
  const auto w = shortest_queue_weights({us(100), us(300)});
  ASSERT_EQ(w.size(), 2u);
  EXPECT_NEAR(w[0], 0.75, 1e-12);
  EXPECT_NEAR(w[1], 0.25, 1e-12);
}

TEST(EpochWeightLaw, FloorIsTwoPercentOrHalfTheUniformShare) {
  // Four backends: a server 1000x slower than the rest sits on the 2% floor.
  std::vector<SimTime> four(4, us(100));
  four[3] = ms(100);
  const auto w4 = shortest_queue_weights(four);
  ASSERT_EQ(w4.size(), 4u);
  EXPECT_DOUBLE_EQ(w4[3], 0.02);
  // Forty backends: 2% each would claim 80% of the mass, so the floor drops
  // to half the uniform share, 1/80.
  std::vector<SimTime> forty(40, us(100));
  forty[39] = ms(100);
  const auto w40 = shortest_queue_weights(forty);
  ASSERT_EQ(w40.size(), 40u);
  EXPECT_DOUBLE_EQ(w40[39], 1.0 / 80.0);
}

TEST(ShareMetrics, DrainDetectorFindsFirstCrossing) {
  std::vector<ShareSnapshot> history;
  history.push_back({ms(1), {0.5, 0.5}});
  history.push_back({ms(2), {0.3, 0.7}});
  history.push_back({ms(3), {0.04, 0.96}});
  history.push_back({ms(4), {0.03, 0.97}});
  EXPECT_EQ(share_drained_at(history, 0, 0.05, 0), ms(3));
  EXPECT_EQ(share_drained_at(history, 0, 0.05, ms(4)), ms(4));
  EXPECT_EQ(share_drained_at(history, 1, 0.05, 0), kNoTime);
  EXPECT_EQ(share_drained_at(history, 7, 0.05, 0), kNoTime);  // out of range
}

}  // namespace
}  // namespace inband
