// Unit tests: the paper's core — Algorithm 1 (FixedTimeout), Algorithm 2
// (EnsembleTimeout + sample cliff), per-flow state table, per-server latency
// tracking, and the α-shift controller, plus the assembled in-band policy on
// synthetic packet streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "app/variability.h"
#include "check/reference_models.h"
#include "check/state_digest.h"
#include "core/alpha_shift_controller.h"
#include "core/ensemble_timeout.h"
#include "core/fixed_timeout.h"
#include "core/flow_state_table.h"
#include "core/inband_lb_policy.h"
#include "core/server_latency_tracker.h"
#include "pinned_digests.h"
#include "scenario/cluster_rig.h"

namespace inband {
namespace {

FlowKey flow_n(std::uint32_t n) {
  return {{make_ipv4(10, 0, 0, 1), static_cast<std::uint16_t>(1024 + n)},
          {make_ipv4(10, 1, 0, 1), 80},
          IpProto::kTcp};
}

// --- Algorithm 1 ---

TEST(FixedTimeout, FirstPacketProducesNoSample) {
  FixedTimeout ft{us(100)};
  FixedTimeoutState s;
  EXPECT_EQ(ft.on_packet(s, us(500)), kNoTime);
  EXPECT_EQ(s.time_last_batch, us(500));
  EXPECT_EQ(s.time_last_pkt, us(500));
}

TEST(FixedTimeout, GapBelowTimeoutSameBatch) {
  FixedTimeout ft{us(100)};
  FixedTimeoutState s;
  ft.on_packet(s, 0);
  EXPECT_EQ(ft.on_packet(s, us(50)), kNoTime);
  EXPECT_EQ(s.time_last_batch, 0);          // batch unchanged
  EXPECT_EQ(s.time_last_pkt, us(50));       // last pkt advanced
}

TEST(FixedTimeout, GapAboveTimeoutStartsBatchAndSamples) {
  FixedTimeout ft{us(100)};
  FixedTimeoutState s;
  ft.on_packet(s, 0);
  ft.on_packet(s, us(50));
  // Gap of 200us > 100us: sample = now - time_last_batch = 250us.
  EXPECT_EQ(ft.on_packet(s, us(250)), us(250));
  EXPECT_EQ(s.time_last_batch, us(250));
}

TEST(FixedTimeout, GapExactlyTimeoutIsSameBatch) {
  // Pseudocode uses strict '>'.
  FixedTimeout ft{us(100)};
  FixedTimeoutState s;
  ft.on_packet(s, 0);
  EXPECT_EQ(ft.on_packet(s, us(100)), kNoTime);
  EXPECT_EQ(ft.on_packet(s, us(201)), us(201));  // 101us gap > timeout
}

TEST(FixedTimeout, PeriodicBatchesYieldPeriodSamples) {
  // Batches of 4 packets 10us apart, new batch every 300us: samples = 300us.
  FixedTimeout ft{us(64)};
  FixedTimeoutState s;
  std::vector<SimTime> samples;
  for (int batch = 0; batch < 10; ++batch) {
    for (int p = 0; p < 4; ++p) {
      const SimTime t = batch * us(300) + p * us(10);
      const SimTime out = ft.on_packet(s, t);
      if (out != kNoTime) samples.push_back(out);
    }
  }
  ASSERT_EQ(samples.size(), 9u);  // every batch after the first
  for (SimTime v : samples) EXPECT_EQ(v, us(300));
}

TEST(FixedTimeout, TooLowTimeoutOverSegments) {
  // Intra-batch gaps of 50us exceed a 20us timeout: erroneous low samples.
  FixedTimeout ft{us(20)};
  FixedTimeoutState s;
  std::vector<SimTime> samples;
  for (int batch = 0; batch < 5; ++batch) {
    for (int p = 0; p < 4; ++p) {
      const SimTime out =
          ft.on_packet(s, batch * us(1000) + p * us(50));
      if (out != kNoTime) samples.push_back(out);
    }
  }
  // 3 false samples (50us) per batch + 4 true-ish batch samples.
  EXPECT_GT(samples.size(), 12u);
  int low = 0;
  for (SimTime v : samples) {
    if (v == us(50)) ++low;
  }
  EXPECT_GE(low, 12);
}

TEST(FixedTimeout, TooHighTimeoutMergesBatches) {
  // Batch period 300us < timeout 1ms: batches merge, few huge samples.
  FixedTimeout ft{ms(1)};
  FixedTimeoutState s;
  std::vector<SimTime> samples;
  for (int batch = 0; batch < 40; ++batch) {
    for (int p = 0; p < 4; ++p) {
      const SimTime out = ft.on_packet(s, batch * us(300) + p * us(10));
      if (out != kNoTime) samples.push_back(out);
    }
  }
  EXPECT_TRUE(samples.empty());  // gap never exceeds 1ms
}

TEST(FixedTimeout, RejectsNonPositiveDelta) {
  EXPECT_DEATH(FixedTimeout{0}, "timeout");
}

// --- Algorithm 2 ---

TEST(EnsembleConfig, DefaultLadderMatchesPaper) {
  const auto d = EnsembleConfig::default_timeouts();
  ASSERT_EQ(d.size(), 7u);
  EXPECT_EQ(d.front(), us(64));
  EXPECT_EQ(d.back(), us(4096));
  for (std::size_t i = 1; i < d.size(); ++i) EXPECT_EQ(d[i], 2 * d[i - 1]);
}

std::size_t cliff(const std::vector<std::uint32_t>& counts) {
  return EnsembleTimeout::detect_cliff(counts);
}

TEST(EnsembleCliff, PicksLargestDrop) {
  // Counts: 100, 95, 90, 10, 9 -> cliff between index 2 and 3 -> m = 2.
  EXPECT_EQ(cliff({100, 95, 90, 10, 9}), 2u);
}

TEST(EnsembleCliff, TieBreaksToSmallestIndex) {
  EXPECT_EQ(cliff({40, 20, 10, 5}), 0u);
}

TEST(EnsembleCliff, HandlesZeros) {
  EXPECT_EQ(cliff({50, 0, 0}), 0u);
  EXPECT_EQ(cliff({0, 0, 0}), 0u);
}

// Feeds a periodic batched arrival pattern: `per_batch` packets spaced
// `intra` apart, batches every `period`, starting at `start`.
std::vector<SimTime> batched_arrivals(SimTime start, SimTime period,
                                      int batches, int per_batch,
                                      SimTime intra) {
  std::vector<SimTime> out;
  for (int b = 0; b < batches; ++b) {
    for (int p = 0; p < per_batch; ++p) {
      out.push_back(start + b * period + p * intra);
    }
  }
  return out;
}

TEST(Ensemble, ConvergesToTimeoutBracketingRtt) {
  // True batch period 500us, intra-batch gaps 10us. The ideal timeout lies
  // in (10us, 500us); after one epoch the cliff should pick a δ below 500us
  // and above 10us, and samples should equal the true period.
  EnsembleTimeout est{{}};
  EnsembleState s;
  std::vector<SimTime> samples;
  for (SimTime t : batched_arrivals(0, us(500), 400, 4, us(10))) {
    const SimTime out = est.on_packet(s, t);
    if (out != kNoTime) samples.push_back(out);
  }
  // After convergence (allow 2 epochs = 256 batches worth of warm-up).
  ASSERT_GT(samples.size(), 50u);
  const SimTime delta = est.current_delta(s);
  EXPECT_GT(delta, us(10));
  EXPECT_LT(delta, us(500));
  // Late samples match the true period.
  for (std::size_t i = samples.size() - 20; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i], us(500));
  }
}

TEST(Ensemble, TracksRttStep) {
  // Period steps from 500us to 2500us mid-stream; chosen delta must follow.
  EnsembleTimeout est{{}};
  EnsembleState s;
  for (SimTime t : batched_arrivals(0, us(500), 300, 4, us(10))) {
    est.on_packet(s, t);
  }
  const SimTime delta_before = est.current_delta(s);
  const SimTime t0 = us(500) * 300;
  std::vector<SimTime> late;
  for (SimTime t : batched_arrivals(t0, us(2500), 200, 4, us(10))) {
    const SimTime out = est.on_packet(s, t);
    if (out != kNoTime) late.push_back(out);
  }
  const SimTime delta_after = est.current_delta(s);
  EXPECT_LT(delta_before, us(500));
  EXPECT_GT(delta_after, us(10));
  EXPECT_LT(delta_after, us(2500));
  ASSERT_GT(late.size(), 10u);
  for (std::size_t i = late.size() - 10; i < late.size(); ++i) {
    EXPECT_EQ(late[i], us(2500));
  }
}

TEST(Ensemble, EpochBoundariesResetCounts) {
  EnsembleConfig cfg;
  cfg.epoch = ms(1);
  EnsembleTimeout est{cfg};
  EnsembleState s;
  est.on_packet(s, 0);
  est.on_packet(s, us(200));  // gap 200us: samples for small deltas
  EXPECT_GT(s.samples[0], 0u);
  // Next packet crosses the epoch: counters reset before processing.
  est.on_packet(s, ms(1) + us(1));
  std::uint32_t total = 0;
  for (auto n : s.samples) total += n;
  // Only the current packet's contribution remains.
  EXPECT_LE(total, est.k());
}

TEST(Ensemble, IdleFlowKeepsPreviousChoice) {
  EnsembleConfig cfg;
  cfg.epoch = ms(1);
  cfg.initial_choice = 2;
  EnsembleTimeout est{cfg};
  EnsembleState s;
  est.on_packet(s, 0);
  // Long silence spanning many epochs, then one packet: choice preserved.
  est.on_packet(s, ms(50));
  EXPECT_EQ(est.current_delta(s), EnsembleConfig::default_timeouts()[2]);
}

TEST(Ensemble, StaleCountersDiscardedAfterIdleEpochs) {
  EnsembleConfig cfg;
  cfg.epoch = ms(1);
  cfg.initial_choice = 2;
  EnsembleTimeout est{cfg};
  EnsembleState s;
  // Build a strong cliff at index 0 inside the first epoch: ~100us gaps
  // sample the 64us timeout on every packet and none of the larger ones.
  est.on_packet(s, 0);
  for (int i = 1; i <= 8; ++i) {
    est.on_packet(s, static_cast<SimTime>(i) * us(100));
  }
  EXPECT_GT(s.samples[0], 0u);
  // The flow then sits idle for 3+ epochs. Those counters describe traffic
  // that no longer exists; the resumed flow must keep its previous choice
  // rather than adopt the pre-idle cliff (regression: it used to wake up
  // with the 64us timeout).
  est.on_packet(s, ms(4) + us(100));
  EXPECT_EQ(est.current_delta(s), EnsembleConfig::default_timeouts()[2]);
}

TEST(Ensemble, PreviousEpochCountersStillAdopted) {
  // The stale-counter guard only fires after a full idle epoch: a roll at
  // elapsed < 2*epoch still adopts the cliff the last epoch measured.
  EnsembleConfig cfg;
  cfg.epoch = ms(1);
  cfg.initial_choice = 2;
  EnsembleTimeout est{cfg};
  EnsembleState s;
  est.on_packet(s, 0);
  for (int i = 1; i <= 8; ++i) {
    est.on_packet(s, static_cast<SimTime>(i) * us(100));
  }
  est.on_packet(s, ms(1) + us(500));  // elapsed 1.5 epochs: counters fresh
  EXPECT_EQ(est.current_delta(s), EnsembleConfig::default_timeouts()[0]);
}

TEST(Ensemble, InitialChoiceConfigurable) {
  EnsembleConfig cfg;
  cfg.initial_choice = 0;
  EnsembleTimeout est{cfg};
  EnsembleState s;
  est.on_packet(s, 0);
  EXPECT_EQ(est.current_delta(s), us(64));
}

TEST(Ensemble, CustomLadder) {
  EnsembleConfig cfg;
  cfg.timeouts = {us(10), us(100), us(1000)};
  cfg.initial_choice = 1;
  EnsembleTimeout est{cfg};
  EXPECT_EQ(est.k(), 3u);
  EnsembleState s;
  est.on_packet(s, 0);
  EXPECT_EQ(est.current_delta(s), us(100));
}

TEST(Ensemble, PerFlowMemoryFootprintDocumented) {
  // Guard against the per-flow state silently ballooning: the whole
  // per-flow record is one fixed-size XDP-style map entry, with nothing
  // behind it on the heap.
  EXPECT_LE(sizeof(FlowState), 128u);
  EXPECT_TRUE(std::is_trivially_copyable_v<FlowState>);
}

TEST(Ensemble, K1MatchesFixedTimeoutExactly) {
  // Differential check: a degenerate ladder of one timeout can never move
  // its choice (the cliff always selects index 0), so EnsembleTimeout must
  // reduce to FixedTimeout with the same delta — identical samples on the
  // same packets, including kNoTime on the rest.
  constexpr SimTime kDelta = us(256);
  EnsembleConfig cfg;
  cfg.timeouts = {kDelta};
  cfg.initial_choice = 0;
  const EnsembleTimeout ensemble{cfg};
  ASSERT_EQ(ensemble.k(), 1u);
  const FixedTimeout fixed{kDelta};

  // A bursty synthetic stream: batches of 1–8 packets with ~20us intra-batch
  // gaps, separated by 100us–5ms idle periods, crossing many epochs.
  Rng rng{20220815};
  EnsembleState es;
  FixedTimeoutState fs;
  SimTime now = 0;
  for (int batch = 0; batch < 2000; ++batch) {
    now += static_cast<SimTime>(rng.uniform_u64(
        static_cast<std::uint64_t>(us(100)),
        static_cast<std::uint64_t>(ms(5))));
    const int pkts = static_cast<int>(rng.uniform_u64(1, 8));
    for (int p = 0; p < pkts; ++p) {
      EXPECT_EQ(ensemble.on_packet(es, now), fixed.on_packet(fs, now))
          << "batch " << batch << " pkt " << p << " t " << now;
      now += static_cast<SimTime>(rng.uniform_u64(
          0, static_cast<std::uint64_t>(us(40))));
    }
  }
  EXPECT_EQ(es.chosen, 0u);
  EXPECT_EQ(ensemble.current_delta(es), kDelta);
}

TEST(Ensemble, LadderMatchesIndependentFixedTimeouts) {
  // Differential check of Algorithm 2 against Algorithm 1: k independent
  // FixedTimeouts run beside the ensemble on the same bursty stream, and
  // every packet's ensemble sample must equal the sample of the rung at the
  // ensemble's current δ (kNoTime included). The per-rung batch starts and
  // the shared last-packet time must match the k instances' state too.
  const std::vector<std::vector<SimTime>> ladders = {
      {us(256)},
      {us(100), us(400), ms(1)},
      EnsembleConfig::default_timeouts(),
  };
  for (const auto& ladder : ladders) {
    SCOPED_TRACE("k=" + std::to_string(ladder.size()));
    EnsembleConfig cfg;
    cfg.timeouts = ladder;
    const EnsembleTimeout ensemble{cfg};
    ASSERT_EQ(ensemble.k(), ladder.size());
    std::vector<FixedTimeout> fixed;
    for (const SimTime d : ladder) fixed.emplace_back(d);
    std::vector<FixedTimeoutState> fs(ladder.size());
    std::vector<SimTime> want(ladder.size());

    // Batches of 1–8 packets with ~20us intra-batch gaps, separated by
    // 100us–5ms idle periods, crossing many epochs.
    Rng rng{20220815};
    EnsembleState es;
    std::vector<bool> chosen_seen(ladder.size(), false);
    SimTime now = 0;
    for (int batch = 0; batch < 2000; ++batch) {
      now += static_cast<SimTime>(rng.uniform_u64(
          static_cast<std::uint64_t>(us(100)),
          static_cast<std::uint64_t>(ms(5))));
      const int pkts = static_cast<int>(rng.uniform_u64(1, 8));
      for (int p = 0; p < pkts; ++p) {
        const SimTime got = ensemble.on_packet(es, now);
        for (std::size_t i = 0; i < ladder.size(); ++i) {
          want[i] = fixed[i].on_packet(fs[i], now);
          ASSERT_EQ(es.batch_start[i], fs[i].time_last_batch);
          ASSERT_EQ(es.last_pkt, fs[i].time_last_pkt);
        }
        const auto rung = static_cast<std::size_t>(
            std::find(ladder.begin(), ladder.end(),
                      ensemble.current_delta(es)) -
            ladder.begin());
        ASSERT_LT(rung, ladder.size());
        chosen_seen[rung] = true;
        ASSERT_EQ(got, want[rung])
            << "batch " << batch << " pkt " << p << " t " << now;
        now += static_cast<SimTime>(rng.uniform_u64(
            0, static_cast<std::uint64_t>(us(40))));
      }
    }
    // The multi-rung ladders must actually move their choice, or the
    // differential would only ever compare the initial rung.
    if (ladder.size() > 1) {
      EXPECT_GT(std::count(chosen_seen.begin(), chosen_seen.end(), true), 1);
    }
  }
}

// --- flow state table ---

TEST(FlowStateTable, CreatesAndReuses) {
  FlowStateTable t;
  auto& s1 = t.get_or_create(flow_n(1), 0);
  s1.ensemble.chosen = 5;
  auto& s2 = t.get_or_create(flow_n(1), us(1));
  EXPECT_EQ(s2.ensemble.chosen, 5u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(FlowStateTable, EraseDropsState) {
  FlowStateTable t;
  t.get_or_create(flow_n(1), 0);
  t.erase(flow_n(1));
  EXPECT_EQ(t.size(), 0u);
}

TEST(FlowStateTable, SweepExpiresIdle) {
  FlowStateTableConfig cfg;
  cfg.idle_timeout = ms(1);
  cfg.sweep_interval = ms(1);
  FlowStateTable t{cfg};
  t.get_or_create(flow_n(1), 0);
  t.get_or_create(flow_n(2), ms(5));
  t.maybe_sweep(ms(5));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.expirations(), 1u);
}

TEST(FlowStateTable, CapacityEvictsStalest) {
  FlowStateTableConfig cfg;
  cfg.max_entries = 3;
  FlowStateTable t{cfg};
  for (std::uint32_t i = 0; i < 5; ++i) {
    t.get_or_create(flow_n(i), static_cast<SimTime>(i));
  }
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.evictions(), 2u);
}

TEST(FlowStateTable, RefreshedEntrySurvivesEviction) {
  // A refresh moves the entry to the recency list's tail; the victim is
  // the entry with the oldest last_seen, not the first one created.
  FlowStateTableConfig cfg;
  cfg.max_entries = 2;
  FlowStateTable t{cfg};
  t.get_or_create(flow_n(1), 10);
  t.get_or_create(flow_n(2), 20);
  t.get_or_create(flow_n(1), 30);  // refresh: record {10, flow 1} goes stale
  t.get_or_create(flow_n(3), 40);  // must evict flow 2, the live minimum
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.evictions(), 1u);
  t.get_or_create(flow_n(1), 50);  // still present: no eviction
  EXPECT_EQ(t.evictions(), 1u);
  t.get_or_create(flow_n(2), 60);  // was evicted: re-creating evicts again
  EXPECT_EQ(t.evictions(), 2u);
}

TEST(FlowStateTable, MatchesLegacyScanOnRandomChurn) {
  // Differential check against the O(n)-scan implementation: identical
  // churn (creates, refreshes, erases, sweeps) at capacity must leave
  // identical contents, eviction/expiration counters, and digests. Many
  // steps share a tick, and evictions come from same-tick bursts (the
  // SYN-flood shape), so the victim is often decided by the flow-key
  // tie-break within the recency list's oldest group.
  FlowStateTableConfig cfg;
  cfg.max_entries = 45;
  cfg.idle_timeout = ms(2);
  cfg.sweep_interval = us(500);
  FlowStateTable neu{cfg};
  LegacyFlowStateTable old{cfg};
  Rng rng{20260806};
  SimTime now = 0;
  for (int step = 0; step < 20000; ++step) {
    // Time advances on a third of the steps (by 1.5 us on average); the
    // other steps share the previous tick.
    if (rng.uniform_u64(0, 2) == 0) {
      now += static_cast<SimTime>(
          rng.uniform_u64(0, static_cast<std::uint64_t>(us(3))));
    }
    // The active flow range drifts forward so abandoned flows go idle and
    // expire, exercising sweep alongside capacity eviction.
    const auto n = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(step / 400) + rng.uniform_u64(0, 30));
    const std::uint64_t roll = rng.uniform_u64(0, 99);
    if (roll < 80) {
      neu.maybe_sweep(now);
      old.maybe_sweep(now);
      auto& a = neu.get_or_create(flow_n(n), now);
      auto& b = old.get_or_create(flow_n(n), now);
      a.syn_at = b.syn_at = now % 977;
    } else if (roll < 90 || step < 10000) {
      neu.erase(flow_n(n));
      old.erase(flow_n(n));
    } else {
      // Second half only (so idle flows can expire undisturbed first): a
      // same-tick burst of one-shot flows pushes the table over capacity,
      // forcing evict_stalest in both implementations. Keys descend within
      // a burst, so among tied entries the victim is not the first added.
      const auto burst = rng.uniform_u64(1, 12);
      for (std::uint64_t j = 0; j < burst; ++j) {
        const auto f = static_cast<std::uint32_t>(
            100000 + static_cast<std::uint64_t>(step) * 16 + (15 - j));
        neu.get_or_create(flow_n(f), now);
        old.get_or_create(flow_n(f), now);
      }
    }
    ASSERT_EQ(neu.size(), old.size()) << "step " << step;
    ASSERT_EQ(neu.evictions(), old.evictions()) << "step " << step;
    if (step % 500 == 0) {
      StateDigest dn;
      neu.digest_state(dn);
      StateDigest dl;
      old.digest_state(dl);
      ASSERT_EQ(dn.value(), dl.value()) << "step " << step;
    }
  }
  EXPECT_GT(neu.evictions(), 0u);
  EXPECT_GT(neu.expirations(), 0u);
  StateDigest dn;
  neu.digest_state(dn);
  StateDigest dl;
  old.digest_state(dl);
  EXPECT_EQ(dn.value(), dl.value());
}

// --- server latency tracker ---

TEST(Tracker, EwmaScoreFollowsSamples) {
  ServerLatencyTracker tr{2};
  tr.record(0, 0, us(100));
  tr.record(0, us(10), us(100));
  EXPECT_NEAR(tr.score(0, us(10)).value(), static_cast<double>(us(100)), 1.0);
  EXPECT_FALSE(tr.score(1, us(10)).has_value());
}

TEST(Tracker, ScoresListsOnlySampledBackends) {
  ServerLatencyTracker tr{3};
  tr.record(1, 0, us(50));
  const auto scores = tr.scores(us(1));
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_EQ(scores[0].backend, 1u);
  EXPECT_EQ(scores[0].samples, 1u);
  EXPECT_EQ(scores[0].last_sample, 0);
}

TEST(Tracker, EwmaScoreOutlivesTheP95Window) {
  // The default EWMA mode keeps no sliding window: a score stays readable
  // long after `window` has passed without samples.
  ServerLatencyTracker tr{1};
  tr.record(0, 0, us(100));
  const auto later = tr.score(0, sec(1));
  ASSERT_TRUE(later.has_value());
  EXPECT_NEAR(*later, static_cast<double>(us(100)), 1.0);
  EXPECT_EQ(tr.scores(sec(1)).size(), 1u);
}

TEST(Tracker, WindowedP95Mode) {
  LatencyTrackerConfig cfg;
  cfg.mode = LatencyScoreMode::kWindowedP95;
  cfg.window = ms(10);
  ServerLatencyTracker tr{1, cfg};
  for (int i = 0; i < 95; ++i) tr.record(0, us(100), us(100));
  for (int i = 0; i < 5; ++i) tr.record(0, us(100), ms(2));
  const double p95 = tr.score(0, us(200)).value();
  EXPECT_GT(p95, static_cast<double>(us(90)));
}

TEST(Tracker, WindowedP95AgedOutSamplesMeanNoScore) {
  LatencyTrackerConfig cfg;
  cfg.mode = LatencyScoreMode::kWindowedP95;
  cfg.window = ms(10);
  ServerLatencyTracker tr{2, cfg};
  tr.record(0, 0, us(100));
  tr.record(1, 0, us(200));
  EXPECT_TRUE(tr.score(0, us(1)).has_value());
  // Backend 0's samples age out of the window while count stays > 0. It
  // must report "no opinion" — the old 0.0 made it the cluster's best
  // backend — and scores() must skip it.
  tr.record(1, ms(50), us(200));
  EXPECT_FALSE(tr.score(0, ms(50)).has_value());
  const auto scores = tr.scores(ms(50));
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_EQ(scores[0].backend, 1u);
}

TEST(Controller, AgedOutBackendCannotMasqueradeAsBest) {
  // Regression: pre-fix, a p95 backend whose window had drained scored 0.0,
  // became "best", and let any live backend pass the rel_threshold and
  // min_abs_gap checks — draining traffic over a 20us gap.
  LatencyTrackerConfig tcfg;
  tcfg.mode = LatencyScoreMode::kWindowedP95;
  tcfg.window = ms(10);
  ServerLatencyTracker tr{3, tcfg};
  AlphaShiftConfig cfg;
  cfg.min_samples = 1;
  cfg.cooldown = 0;
  cfg.staleness = sec(1);  // freshness-by-timestamp stays satisfied
  AlphaShiftController ctrl{cfg};
  tr.record(0, 0, us(100));  // ages out of the window by ms(50)
  tr.record(1, ms(50), us(500));
  tr.record(2, ms(50), us(520));
  EXPECT_FALSE(ctrl.control_step(tr, {}, ms(50)).has_value());
}

TEST(Tracker, EwmaDecaysTowardNewLevel) {
  LatencyTrackerConfig cfg;
  cfg.ewma_tau = us(100);
  ServerLatencyTracker tr{1, cfg};
  tr.record(0, 0, us(100));
  tr.record(0, ms(1), ms(1));  // 10 tau later: old value nearly gone
  EXPECT_GT(tr.score(0, ms(1)).value(), static_cast<double>(us(900)));
}

// --- alpha-shift controller ---

TEST(Controller, NoShiftWithOneBackend) {
  AlphaShiftController c{{}};
  ServerLatencyTracker tr{2};
  for (int i = 0; i < 10; ++i) tr.record(0, us(10) * i, us(100));
  EXPECT_FALSE(c.control_step(tr, {}, us(100)).has_value());
}

TEST(Controller, ShiftsFromWorstWhenGapLarge) {
  AlphaShiftConfig cfg;
  cfg.min_samples = 1;
  cfg.cooldown = 0;
  AlphaShiftController c{cfg};
  ServerLatencyTracker tr{2};
  tr.record(0, us(1), us(100));
  tr.record(1, us(2), ms(2));
  const auto d = c.control_step(tr, {}, us(3));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->from, 1u);
  EXPECT_DOUBLE_EQ(d->fraction, 0.10);
  EXPECT_GT(d->worst_score_ns, d->best_score_ns);
}

TEST(Controller, RelativeThresholdSuppressesSmallGaps) {
  AlphaShiftConfig cfg;
  cfg.min_samples = 1;
  cfg.rel_threshold = 2.0;
  AlphaShiftController c{cfg};
  ServerLatencyTracker tr{2};
  tr.record(0, us(1), us(400));
  tr.record(1, us(2), us(600));  // 1.5x, below threshold
  EXPECT_FALSE(c.control_step(tr, {}, us(3)).has_value());
}

TEST(Controller, AbsoluteGapGuard) {
  AlphaShiftConfig cfg;
  cfg.min_samples = 1;
  cfg.rel_threshold = 1.0;
  cfg.min_abs_gap = us(100);
  AlphaShiftController c{cfg};
  ServerLatencyTracker tr{2};
  tr.record(0, us(1), us(10));
  tr.record(1, us(2), us(50));  // 5x but only 40us apart
  EXPECT_FALSE(c.control_step(tr, {}, us(3)).has_value());
}

TEST(Controller, CooldownSpacesShifts) {
  AlphaShiftConfig cfg;
  cfg.min_samples = 1;
  cfg.cooldown = ms(1);
  AlphaShiftController c{cfg};
  ServerLatencyTracker tr{2};
  tr.record(0, 0, us(100));
  tr.record(1, 0, ms(5));
  EXPECT_TRUE(c.control_step(tr, {}, us(10)).has_value());
  tr.record(1, us(20), ms(5));
  EXPECT_FALSE(c.control_step(tr, {}, us(30)).has_value());  // within cooldown
  tr.record(1, ms(2), ms(5));
  EXPECT_TRUE(c.control_step(tr, {}, ms(2)).has_value());
  EXPECT_EQ(c.shifts(), 2u);
}

TEST(Controller, StaleScoresIgnored) {
  AlphaShiftConfig cfg;
  cfg.min_samples = 1;
  cfg.staleness = ms(1);
  AlphaShiftController c{cfg};
  ServerLatencyTracker tr{2};
  tr.record(0, 0, us(100));
  tr.record(1, 0, ms(5));
  // 10ms later both scores are stale: no action.
  EXPECT_FALSE(c.control_step(tr, {}, ms(10)).has_value());
}

TEST(Controller, MinSamplesWarmup) {
  AlphaShiftConfig cfg;
  cfg.min_samples = 5;
  AlphaShiftController c{cfg};
  ServerLatencyTracker tr{2};
  tr.record(0, 0, us(100));
  tr.record(1, 0, ms(5));
  EXPECT_FALSE(c.control_step(tr, {}, us(1)).has_value());
}

TEST(Controller, PaperFaithfulModeAlwaysShifts) {
  // rel_threshold=1, no abs gap, no cooldown, 1 sample: the raw §3 rule.
  AlphaShiftConfig cfg;
  cfg.rel_threshold = 1.0;
  cfg.min_abs_gap = 0;
  cfg.cooldown = 0;
  cfg.min_samples = 1;
  AlphaShiftController c{cfg};
  ServerLatencyTracker tr{2};
  tr.record(0, 0, us(100));
  tr.record(1, 0, us(101));
  EXPECT_TRUE(c.control_step(tr, {}, us(1)).has_value());
}

// --- assembled policy on a synthetic packet stream ---

Packet packet_for(const FlowKey& f) {
  Packet p;
  p.flow = f;
  p.payload_len = 100;
  return p;
}

TEST(InbandPolicy, RoutesViaMaglevAndLearns) {
  BackendPool pool{{0, "s0", make_ipv4(10, 2, 0, 1), 1, true},
                   {1, "s1", make_ipv4(10, 2, 0, 2), 1, true}};
  InbandPolicyConfig cfg;
  cfg.maglev_table_size = 251;
  cfg.ensemble.epoch = ms(4);
  cfg.controller.min_samples = 2;
  cfg.controller.cooldown = 0;
  InbandLbPolicy policy{pool, cfg};

  EXPECT_NE(policy.pick(flow_n(1), 0), kNoBackend);

  // Two flows, one per backend. Backend 0 answers every 200us; backend 1
  // every 3ms. Batches of 3 packets, 5us apart.
  SimTime t = 0;
  for (int round = 0; round < 3000; ++round) {
    t += us(200);
    for (int p = 0; p < 3; ++p) {
      policy.on_packet(packet_for(flow_n(1)), 0, t + p * us(5), false);
    }
    if (round % 15 == 0) {
      for (int p = 0; p < 3; ++p) {
        policy.on_packet(packet_for(flow_n(2)), 1, t + p * us(5), false);
      }
    }
  }
  EXPECT_GT(policy.samples_total(), 100u);
  // Backend 1 (slow responder) should have been drained by shifts.
  EXPECT_GT(policy.controller().shifts(), 0u);
  EXPECT_LT(policy.table().slots_owned(1), policy.table().slots_owned(0));
  ASSERT_FALSE(policy.shift_history().empty());
  EXPECT_EQ(policy.shift_history().front().from, 1u);
}

TEST(InbandPolicy, FlowClosedDropsEstimatorState) {
  BackendPool pool{{0, "s0", make_ipv4(10, 2, 0, 1), 1, true},
                   {1, "s1", make_ipv4(10, 2, 0, 2), 1, true}};
  InbandPolicyConfig cfg;
  cfg.maglev_table_size = 251;
  InbandLbPolicy policy{pool, cfg};
  policy.on_packet(packet_for(flow_n(1)), 0, us(1), true);
  EXPECT_EQ(policy.tracked_flows(), 1u);
  policy.on_flow_closed(flow_n(1), 0, us(2));
  EXPECT_EQ(policy.tracked_flows(), 0u);
}

TEST(InbandPolicy, RestoreDriftsBackWhenQuiet) {
  BackendPool pool{{0, "s0", make_ipv4(10, 2, 0, 1), 1, true},
                   {1, "s1", make_ipv4(10, 2, 0, 2), 1, true}};
  InbandPolicyConfig cfg;
  cfg.maglev_table_size = 251;
  cfg.restore_interval = ms(1);
  cfg.restore_step = 0.05;
  cfg.ensemble.epoch = ms(4);
  cfg.controller.min_samples = 2;
  cfg.controller.cooldown = 0;
  InbandLbPolicy policy{pool, cfg};
  // Drain backend 1 through the controller: its flow answers 15x slower.
  SimTime t = 0;
  for (int round = 0; round < 1000; ++round) {
    t += us(200);
    policy.on_packet(packet_for(flow_n(1)), 0, t, false);
    if (round % 15 == 0) {
      policy.on_packet(packet_for(flow_n(2)), 1, t + us(3), false);
    }
  }
  ASSERT_GT(policy.controller().shifts(), 0u);
  const auto drained = policy.table().slots_owned(1);
  ASSERT_LT(drained, 251u / 2);
  // Then quiet traffic on backend 0 only: backend 1's score goes stale, the
  // controller stops, and the restore drift hands slots back.
  for (int i = 0; i < 100; ++i) {
    t += ms(1);
    policy.on_packet(packet_for(flow_n(1)), 0, t, false);
  }
  EXPECT_GT(policy.table().slots_owned(1), drained);
}

TEST(InbandPolicy, FlowDeltaIntrospection) {
  BackendPool pool{{0, "s0", make_ipv4(10, 2, 0, 1), 1, true}};
  InbandPolicyConfig cfg;
  cfg.maglev_table_size = 251;
  cfg.ensemble.initial_choice = 3;
  InbandLbPolicy policy{pool, cfg};
  policy.on_packet(packet_for(flow_n(1)), 0, us(1), true);
  EXPECT_EQ(policy.flow_delta(flow_n(1)),
            EnsembleConfig::default_timeouts()[3]);
  EXPECT_EQ(policy.flow_delta(flow_n(2)), kNoTime);
}

TEST(InbandPolicy, FlowDeltaLeavesTheFlowTableAlone) {
  // flow_delta is a lookup: asking about an unknown flow must not admit it,
  // and asking about a known one must not refresh its recency.
  BackendPool pool{{0, "s0", make_ipv4(10, 2, 0, 1), 1, true},
                   {1, "s1", make_ipv4(10, 2, 0, 2), 1, true}};
  InbandPolicyConfig cfg;
  cfg.maglev_table_size = 251;
  cfg.flow_table.max_entries = 2;
  InbandLbPolicy policy{pool, cfg};
  policy.on_packet(packet_for(flow_n(1)), 0, us(1), true);
  policy.on_packet(packet_for(flow_n(2)), 1, us(2), true);
  const auto digest = [&policy] {
    StateDigest d;
    policy.digest_state(d);
    return d.value();
  };
  const std::uint64_t before = digest();
  ASSERT_EQ(policy.tracked_flows(), 2u);
  EXPECT_EQ(policy.flow_delta(flow_n(3)), kNoTime);  // unknown
  EXPECT_NE(policy.flow_delta(flow_n(1)), kNoTime);  // known, the oldest
  EXPECT_EQ(policy.tracked_flows(), 2u);
  EXPECT_EQ(digest(), before);
  // Flow 1 is still the oldest, so a third flow evicts it, not flow 2.
  policy.on_packet(packet_for(flow_n(3)), 0, us(3), true);
  EXPECT_EQ(policy.flow_delta(flow_n(1)), kNoTime);
  EXPECT_NE(policy.flow_delta(flow_n(2)), kNoTime);
}

// --- flow-floor normalization (§5(1) extension) ---

TEST(InbandPolicy, ClientFloorNormalizationCancelsClientDistance) {
  BackendPool pool{{0, "s0", make_ipv4(10, 2, 0, 1), 1, true},
                   {1, "s1", make_ipv4(10, 2, 0, 2), 1, true}};
  InbandPolicyConfig cfg;
  cfg.maglev_table_size = 251;
  cfg.normalize_client_floor = true;
  cfg.ensemble.epoch = ms(4);
  cfg.controller.min_samples = 2;
  cfg.controller.cooldown = 0;
  InbandLbPolicy policy{pool, cfg};

  // Near client (10.0.0.1) on backend 0: batches every 200us. Far client
  // (10.0.0.99) on backend 1: batches every 2.2ms — but that is its
  // *constant* distance, not server slowness. Absolute scoring would drain
  // backend 1; client-floor scoring must not.
  FlowKey far_flow = flow_n(2);
  far_flow.src.addr = make_ipv4(10, 0, 0, 99);
  SimTime t = 0;
  for (int round = 0; round < 2000; ++round) {
    t += us(200);
    Packet p1;
    p1.flow = flow_n(1);
    policy.on_packet(p1, 0, t, false);
    if (round % 11 == 0) {
      Packet p2;
      p2.flow = far_flow;
      policy.on_packet(p2, 1, t + us(3), false);
    }
  }
  EXPECT_GT(policy.samples_total(), 100u);
  EXPECT_EQ(policy.controller().shifts(), 0u);
  EXPECT_EQ(policy.table().slots_owned(0), policy.table().slots_owned(1) + 1);
}

TEST(InbandPolicy, ClientFloorStillDetectsRealInflation) {
  BackendPool pool{{0, "s0", make_ipv4(10, 2, 0, 1), 1, true},
                   {1, "s1", make_ipv4(10, 2, 0, 2), 1, true}};
  InbandPolicyConfig cfg;
  cfg.maglev_table_size = 251;
  cfg.normalize_client_floor = true;
  cfg.ensemble.epoch = ms(4);
  cfg.controller.min_samples = 2;
  cfg.controller.cooldown = 0;
  InbandLbPolicy policy{pool, cfg};

  // Both flows start at 200us batches; after warm-up, backend 1's flow
  // inflates to 1.5ms — a real slowdown relative to its own floor.
  SimTime t1 = 0;
  SimTime t2 = 0;
  for (int round = 0; round < 300; ++round) {
    t1 += us(200);
    t2 = t1 + us(3);
    Packet p1;
    p1.flow = flow_n(1);
    policy.on_packet(p1, 0, t1, false);
    Packet p2;
    p2.flow = flow_n(2);
    policy.on_packet(p2, 1, t2, false);
  }
  // Inflate flow 2's period.
  SimTime t = t1;
  for (int round = 0; round < 300; ++round) {
    t += us(200);
    Packet p1;
    p1.flow = flow_n(1);
    policy.on_packet(p1, 0, t, false);
    if (round % 8 == 0) {
      Packet p2;
      p2.flow = flow_n(2);
      policy.on_packet(p2, 1, t + us(3), false);
    }
  }
  EXPECT_GT(policy.controller().shifts(), 0u);
  ASSERT_FALSE(policy.shift_history().empty());
  EXPECT_EQ(policy.shift_history().front().from, 1u);
}

// --- parameterized property sweeps ---

// Property: a FixedTimeout sample is only produced on a gap strictly above
// delta, and the sample always spans at least that gap.
class FixedTimeoutProperty : public testing::TestWithParam<SimTime> {};

TEST_P(FixedTimeoutProperty, SamplesImplyGapAboveDelta) {
  const SimTime delta = GetParam();
  FixedTimeout ft{delta};
  FixedTimeoutState s;
  Rng rng{delta == 0 ? 1 : static_cast<std::uint64_t>(delta)};
  SimTime t = 0;
  SimTime last_t = kNoTime;
  for (int i = 0; i < 20000; ++i) {
    t += static_cast<SimTime>(rng.exponential(static_cast<double>(us(80))));
    const SimTime out = ft.on_packet(s, t);
    if (out != kNoTime) {
      ASSERT_NE(last_t, kNoTime);
      EXPECT_GT(t - last_t, delta);   // the triggering gap exceeds delta
      EXPECT_GE(out, t - last_t);     // sample covers at least that gap
    }
    last_t = t;
  }
}

INSTANTIATE_TEST_SUITE_P(Deltas, FixedTimeoutProperty,
                         testing::Values(us(16), us(64), us(256), us(1024),
                                         ms(4)));

// Property: whatever the arrival process, EnsembleTimeout's chosen delta is
// always a ladder member, counters never exceed packets per epoch, and the
// emitted sample equals what a standalone FixedTimeout at the chosen delta
// would have emitted at that packet.
class EnsemblePropertyTest
    : public testing::TestWithParam<std::tuple<SimTime, double>> {};

TEST_P(EnsemblePropertyTest, ChosenDeltaAlwaysInLadder) {
  const auto [mean_gap, burstiness] = GetParam();
  EnsembleConfig cfg;
  cfg.epoch = ms(8);
  EnsembleTimeout est{cfg};
  EnsembleState s;
  Rng rng{42};
  SimTime t = 0;
  for (int i = 0; i < 30000; ++i) {
    // Bursty arrivals: with prob `burstiness`, tiny gap; else mean_gap.
    const double gap =
        rng.bernoulli(burstiness)
            ? rng.exponential(static_cast<double>(us(3)))
            : rng.exponential(static_cast<double>(mean_gap));
    t += std::max<SimTime>(1, static_cast<SimTime>(gap));
    est.on_packet(s, t);
    const SimTime delta = est.current_delta(s);
    bool in_ladder = false;
    for (SimTime d : cfg.timeouts) in_ladder = in_ladder || d == delta;
    ASSERT_TRUE(in_ladder) << "delta=" << delta;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ArrivalShapes, EnsemblePropertyTest,
    testing::Combine(testing::Values(us(50), us(200), us(800), ms(3)),
                     testing::Values(0.0, 0.5, 0.9)));

// Property: controller never proposes shifting from a backend that is not
// the current worst, and honours its cooldown for every config combination.
class ControllerProperty
    : public testing::TestWithParam<std::tuple<double, SimTime>> {};

TEST_P(ControllerProperty, ShiftAlwaysFromWorstAndCooldownHeld) {
  const auto [alpha, cooldown] = GetParam();
  AlphaShiftConfig cfg;
  cfg.alpha = alpha;
  cfg.cooldown = cooldown;
  cfg.min_samples = 1;
  cfg.rel_threshold = 1.2;
  cfg.min_abs_gap = us(10);
  AlphaShiftController ctrl{cfg};
  ServerLatencyTracker tracker{4};
  Rng rng{7};
  SimTime now = 0;
  SimTime last_shift = kNoTime;
  for (int i = 0; i < 5000; ++i) {
    now += us(20);
    const auto backend = static_cast<BackendId>(rng.uniform_u64(0, 3));
    const auto lat = static_cast<SimTime>(
        rng.lognormal_median(static_cast<double>(us(200)), 0.8));
    tracker.record(backend, now, lat);
    if (auto d = ctrl.control_step(tracker, {}, now)) {
      EXPECT_DOUBLE_EQ(d->fraction, alpha);
      EXPECT_GE(d->worst_score_ns, d->best_score_ns);
      // The decision's source is the max over fresh scores.
      double max_score = 0;
      for (const auto& sc : tracker.scores(now)) {
        max_score = std::max(max_score, sc.score_ns);
      }
      EXPECT_DOUBLE_EQ(d->worst_score_ns, max_score);
      if (last_shift != kNoTime) {
        EXPECT_GE(now - last_shift, cooldown);
      }
      last_shift = now;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ControllerProperty,
    testing::Combine(testing::Values(0.05, 0.1, 0.25),
                     testing::Values(SimTime{0}, us(100), ms(1))));


// --- SYN→handshake-ACK RTT (the §3 "simple instantiation") ---

Packet syn_for(const FlowKey& f) {
  Packet p;
  p.flow = f;
  p.flags = tcpflag::kSyn;
  return p;
}

Packet ack_for(const FlowKey& f) {
  Packet p;
  p.flow = f;
  p.flags = tcpflag::kAck;
  return p;
}

// A one-backend policy with the handshake bootstrap on. The ensemble starts
// on its largest rung (4096us), which none of these gaps below 4ms exceed,
// so every sample the tracker sees is a handshake sample.
InbandLbPolicy handshake_policy() {
  InbandPolicyConfig cfg;
  cfg.maglev_table_size = 251;
  cfg.use_handshake_bootstrap = true;
  cfg.ensemble.initial_choice = static_cast<std::uint32_t>(
      EnsembleConfig::default_timeouts().size() - 1);
  return InbandLbPolicy{
      BackendPool{{0, "s0", make_ipv4(10, 2, 0, 1), 1, true}}, cfg};
}

TEST(HandshakeRtt, MeasuresSynToAckGap) {
  InbandLbPolicy policy = handshake_policy();
  policy.on_packet(syn_for(flow_n(1)), 0, us(100), true);
  EXPECT_EQ(policy.handshake_samples(), 0u);
  policy.on_packet(ack_for(flow_n(1)), 0, us(350), false);
  EXPECT_EQ(policy.handshake_samples(), 1u);
  EXPECT_EQ(policy.tracker().samples(0), 1u);
  EXPECT_NEAR(policy.tracker().score(0, us(350)).value(),
              static_cast<double>(us(250)), 1.0);
}

TEST(HandshakeRtt, OnlyFirstAckCounts) {
  InbandLbPolicy policy = handshake_policy();
  policy.on_packet(syn_for(flow_n(1)), 0, 0, true);
  policy.on_packet(ack_for(flow_n(1)), 0, us(200), false);
  EXPECT_EQ(policy.handshake_samples(), 1u);
  // Later ACKs of the same flow are data-path traffic, not handshakes.
  policy.on_packet(ack_for(flow_n(1)), 0, us(400), false);
  EXPECT_EQ(policy.handshake_samples(), 1u);
}

TEST(HandshakeRtt, UnknownAckIgnored) {
  InbandLbPolicy policy = handshake_policy();
  policy.on_packet(ack_for(flow_n(9)), 0, us(1), false);
  EXPECT_EQ(policy.handshake_samples(), 0u);
  EXPECT_EQ(policy.tracker().samples(0), 0u);
}

TEST(HandshakeRtt, SynRetransmissionAbandonsSample) {
  InbandLbPolicy policy = handshake_policy();
  policy.on_packet(syn_for(flow_n(1)), 0, 0, true);
  policy.on_packet(syn_for(flow_n(1)), 0, ms(50), false);  // retransmitted
  EXPECT_EQ(policy.retransmitted_syns(), 1u);
  // The eventual ACK must not produce a (RTO-inflated) sample.
  policy.on_packet(ack_for(flow_n(1)), 0, ms(51), false);
  EXPECT_EQ(policy.handshake_samples(), 0u);
}

TEST(HandshakeRtt, RstClearsPending) {
  InbandLbPolicy policy = handshake_policy();
  policy.on_packet(syn_for(flow_n(1)), 0, 0, true);
  Packet rst;
  rst.flow = flow_n(1);
  rst.flags = tcpflag::kRst;
  policy.on_packet(rst, 0, us(10), false);
  policy.on_packet(ack_for(flow_n(1)), 0, us(20), false);
  EXPECT_EQ(policy.handshake_samples(), 0u);
}

TEST(HandshakeRtt, ClosedFlowLeavesNoArmedSyn) {
  // The SYN time lives in the flow's entry, so closing the flow drops it:
  // when the key returns, its SYN starts a fresh handshake instead of
  // counting as a retransmission of the closed flow's.
  InbandLbPolicy policy = handshake_policy();
  policy.on_packet(syn_for(flow_n(1)), 0, 0, true);
  policy.on_flow_closed(flow_n(1), 0, us(5));
  EXPECT_EQ(policy.tracked_flows(), 0u);
  policy.on_packet(syn_for(flow_n(1)), 0, ms(1), true);
  EXPECT_EQ(policy.retransmitted_syns(), 0u);
  policy.on_packet(ack_for(flow_n(1)), 0, ms(1) + us(300), false);
  EXPECT_EQ(policy.handshake_samples(), 1u);
  EXPECT_NEAR(policy.tracker().score(0, ms(1) + us(300)).value(),
              static_cast<double>(us(300)), 1.0);
}

TEST(HandshakeRtt, StaleHandshakesSweptOut) {
  // A SYN whose ACK never comes is not kept forever: its flow entry (and
  // the SYN time in it) goes with the flow table's idle sweep.
  InbandPolicyConfig cfg;
  cfg.maglev_table_size = 251;
  cfg.use_handshake_bootstrap = true;
  cfg.flow_table.idle_timeout = ms(10);
  cfg.flow_table.sweep_interval = ms(1);
  InbandLbPolicy policy{
      BackendPool{{0, "s0", make_ipv4(10, 2, 0, 1), 1, true}}, cfg};
  policy.on_packet(syn_for(flow_n(1)), 0, 0, true);
  EXPECT_EQ(policy.tracked_flows(), 1u);
  // A much later packet from another flow triggers the sweep.
  policy.on_packet(syn_for(flow_n(2)), 0, ms(30), true);
  EXPECT_EQ(policy.tracked_flows(), 1u);  // only the fresh one remains
  // The swept flow's late ACK finds no armed SYN.
  policy.on_packet(ack_for(flow_n(1)), 0, ms(31), false);
  EXPECT_EQ(policy.handshake_samples(), 0u);
}

TEST(HandshakeRtt, CapacityBounded) {
  // Outstanding handshakes are bounded by the flow table's capacity.
  InbandPolicyConfig cfg;
  cfg.maglev_table_size = 251;
  cfg.use_handshake_bootstrap = true;
  cfg.flow_table.max_entries = 8;
  InbandLbPolicy policy{
      BackendPool{{0, "s0", make_ipv4(10, 2, 0, 1), 1, true}}, cfg};
  for (std::uint32_t i = 0; i < 50; ++i) {
    policy.on_packet(syn_for(flow_n(i)), 0, static_cast<SimTime>(i), true);
  }
  EXPECT_LE(policy.tracked_flows(), 8u);
  // An evicted flow's ACK yields nothing; a surviving flow's still counts.
  policy.on_packet(ack_for(flow_n(0)), 0, us(300), false);
  EXPECT_EQ(policy.handshake_samples(), 0u);
  policy.on_packet(ack_for(flow_n(49)), 0, us(301), false);
  EXPECT_EQ(policy.handshake_samples(), 1u);
}

TEST(InbandPolicy, HandshakeBootstrapFeedsTracker) {
  BackendPool pool{{0, "s0", make_ipv4(10, 2, 0, 1), 1, true},
                   {1, "s1", make_ipv4(10, 2, 0, 2), 1, true}};
  InbandPolicyConfig cfg;
  cfg.maglev_table_size = 251;
  cfg.use_handshake_bootstrap = true;
  InbandLbPolicy policy{pool, cfg};
  policy.on_packet(syn_for(flow_n(1)), 0, us(10), true);
  policy.on_packet(ack_for(flow_n(1)), 0, us(310), false);
  EXPECT_EQ(policy.handshake_samples(), 1u);
  // Two samples land: the handshake gap AND the ensemble's batch gap (the
  // ACK opens a new batch 300us after the SYN) — both measure the same loop.
  EXPECT_EQ(policy.tracker().samples(0), 2u);
  EXPECT_NEAR(policy.tracker().score(0, us(310)).value(),
              static_cast<double>(us(300)), 1.0);
}


// --- controller extensions: warmup, global guard, confirmation ---

TEST(Controller, WarmupSuppressesEarlyShifts) {
  AlphaShiftConfig cfg;
  cfg.min_samples = 1;
  cfg.warmup = ms(10);
  AlphaShiftController c{cfg};
  ServerLatencyTracker tr{2};
  tr.record(0, ms(5), us(100));
  tr.record(1, ms(5), ms(5));
  EXPECT_FALSE(c.control_step(tr, {}, ms(5)).has_value());  // inside warmup
  tr.record(0, ms(11), us(100));
  tr.record(1, ms(11), ms(5));
  EXPECT_TRUE(c.control_step(tr, {}, ms(11)).has_value());  // after warmup
}

TEST(Controller, GlobalGuardHoldsWhenBestInflates) {
  AlphaShiftConfig cfg;
  cfg.min_samples = 1;
  cfg.cooldown = 0;
  cfg.global_guard = 3.0;
  cfg.guard_tau = ms(50);
  AlphaShiftController c{cfg};
  ServerLatencyTracker tr{2};
  // Establish a baseline: both servers ~100us, no shift (gap too small).
  for (int i = 1; i <= 20; ++i) {
    tr.record(0, i * us(100), us(100));
    tr.record(1, i * us(100), us(110));
    c.control_step(tr, {}, i * us(100));
  }
  // Abrupt shared fault: BOTH jump, but server 1's sample arrives first.
  tr.record(1, ms(3), ms(2));
  // Gap is huge (2ms vs 100us) but best==100us is NOT inflated -> guard
  // passes; this decision is legitimate from the controller's view...
  EXPECT_TRUE(c.control_step(tr, {}, ms(3)).has_value());
  // ...now server 0's samples catch up: best itself is inflated 10x over
  // its trailing baseline -> the guard holds even though the gap persists.
  tr.record(0, ms(4), ms(1));
  tr.record(1, ms(4), ms(2));
  EXPECT_FALSE(c.control_step(tr, {}, ms(4)).has_value());
  EXPECT_GT(c.guard_holds(), 0u);
}

TEST(Controller, ConfirmationDelayRequiresPersistentCandidate) {
  AlphaShiftConfig cfg;
  cfg.min_samples = 1;
  cfg.cooldown = 0;
  cfg.confirm = ms(1);
  AlphaShiftController c{cfg};
  ServerLatencyTracker tr{2};
  tr.record(0, us(10), us(100));
  tr.record(1, us(10), ms(5));
  // First sighting arms the candidate but does not execute.
  EXPECT_FALSE(c.control_step(tr, {}, us(10)).has_value());
  // Still pending inside the window.
  tr.record(1, us(500), ms(5));
  EXPECT_FALSE(c.control_step(tr, {}, us(500)).has_value());
  // Past the confirmation window with the same candidate: execute.
  tr.record(1, ms(2), ms(5));
  EXPECT_TRUE(c.control_step(tr, {}, ms(2)).has_value());
}

TEST(Controller, ConfirmationResetsWhenGapEvaporates) {
  AlphaShiftConfig cfg;
  cfg.min_samples = 1;
  cfg.cooldown = 0;
  cfg.confirm = ms(1);
  cfg.staleness = sec(1);
  AlphaShiftController c{cfg};
  ServerLatencyTracker tr{2};
  tr.record(0, us(10), us(100));
  tr.record(1, us(10), ms(5));
  EXPECT_FALSE(c.control_step(tr, {}, us(10)).has_value());  // candidate armed
  // The gap disappears (transition race resolved): candidate withdrawn.
  // EWMA with tau 2ms: a 100us sample 10ms later dominates.
  tr.record(1, ms(12), us(100));
  EXPECT_FALSE(c.control_step(tr, {}, ms(12)).has_value());
  // Gap reappears: the confirmation clock must restart.
  tr.record(1, ms(13), ms(50));
  EXPECT_FALSE(c.control_step(tr, {}, ms(13)).has_value());
  tr.record(1, ms(13) + us(100), ms(50));
  EXPECT_FALSE(c.control_step(tr, {}, ms(13) + us(100)).has_value());
  tr.record(1, ms(15), ms(50));
  EXPECT_TRUE(c.control_step(tr, {}, ms(15)).has_value());
}

TEST(Controller, ConfirmationSwitchesCandidates) {
  AlphaShiftConfig cfg;
  cfg.min_samples = 1;
  cfg.cooldown = 0;
  cfg.confirm = ms(1);
  cfg.staleness = sec(1);
  AlphaShiftController c{cfg};
  ServerLatencyTracker tr{3};
  tr.record(0, us(10), us(100));
  tr.record(1, us(10), ms(5));
  tr.record(2, us(10), us(120));
  EXPECT_FALSE(c.control_step(tr, {}, us(10)).has_value());  // candidate: 1
  // Backend 2 becomes the new worst: candidate switches, clock restarts.
  tr.record(2, us(200), ms(20));
  EXPECT_FALSE(c.control_step(tr, {}, us(200)).has_value());
  tr.record(2, us(900), ms(20));
  EXPECT_FALSE(c.control_step(tr, {}, us(900)).has_value());  // 700us < confirm
  tr.record(2, ms(2), ms(20));
  const auto d = c.control_step(tr, {}, ms(2));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->from, 2u);
}


// --- table-update mechanisms ---

TEST(InbandPolicy, WeightRebuildModeDrainsVictim) {
  BackendPool pool{{0, "s0", make_ipv4(10, 2, 0, 1), 1, true},
                   {1, "s1", make_ipv4(10, 2, 0, 2), 1, true},
                   {2, "s2", make_ipv4(10, 2, 0, 3), 1, true}};
  InbandPolicyConfig cfg;
  cfg.maglev_table_size = 1021;
  cfg.table_update = TableUpdateMode::kWeightRebuild;
  cfg.ensemble.epoch = ms(4);
  cfg.controller.min_samples = 2;
  cfg.controller.cooldown = 0;
  InbandLbPolicy policy{pool, cfg};

  SimTime t = 0;
  for (int round = 0; round < 3000; ++round) {
    t += us(200);
    Packet fast;
    fast.flow = flow_n(1);
    policy.on_packet(fast, 0, t, false);
    Packet fast2;
    fast2.flow = flow_n(3);
    policy.on_packet(fast2, 2, t + us(1), false);
    if (round % 15 == 0) {
      Packet slow;
      slow.flow = flow_n(2);
      policy.on_packet(slow, 1, t + us(3), false);
    }
  }
  EXPECT_GT(policy.controller().shifts(), 0u);
  EXPECT_GT(policy.slots_disturbed(), 0u);
  // Victim drained; the full table is still covered by the healthy two.
  EXPECT_LT(policy.table().slots_owned(1), 1021u / 10);
  EXPECT_EQ(policy.table().slots_owned(0) + policy.table().slots_owned(1) +
                policy.table().slots_owned(2),
            1021u);
}

// --- dependency model units ---

TEST(SharedDependency, DelayStepsAtInjection) {
  SharedDependency dep{us(20)};
  EXPECT_EQ(dep.delay_at(0), us(20));
  dep.inject(ms(5), ms(1));
  EXPECT_EQ(dep.delay_at(ms(4)), us(20));
  EXPECT_EQ(dep.delay_at(ms(5)), us(20) + ms(1));
  EXPECT_EQ(dep.delay_at(ms(50)), us(20) + ms(1));
}

TEST(DependencyInjector, CallFractionGatesTheDelay) {
  SharedDependency dep{us(100)};
  DependencyInjector inj{dep, 0.25};
  inj.seed_stream(17);
  int hits = 0;
  constexpr int kN = 40'000;
  for (int i = 0; i < kN; ++i) {
    const SimTime d = inj.extra_service_time(0);
    if (d > 0) {
      EXPECT_EQ(d, us(100));
      ++hits;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.25, 0.02);
}

TEST(DependencyInjector, SharedInstanceCouplesServers) {
  SharedDependency dep{0};
  DependencyInjector a{dep, 1.0};
  DependencyInjector b{dep, 1.0};
  EXPECT_EQ(a.extra_service_time(0), 0);
  EXPECT_EQ(b.extra_service_time(0), 0);
  dep.inject(ms(1), ms(2));
  EXPECT_EQ(a.extra_service_time(ms(1)), ms(2));
  EXPECT_EQ(b.extra_service_time(ms(1)), ms(2));
}

// --- α-shift refactor differential suite (WeightController extraction) ---

// Drives AlphaShiftController::control_step and the pre-refactor
// LegacyAlphaShiftController (check/reference_models.h) with identical
// synthetic score streams and demands the identical decision sequence —
// presence, victim, fraction, and both scores, bit for bit — and that every
// α decision uses the shift expression.
void drive_alpha_differential(const AlphaShiftConfig& cfg) {
  AlphaShiftController fresh{cfg};
  LegacyAlphaShiftController legacy{cfg};
  ServerLatencyTracker tr_fresh{4};
  ServerLatencyTracker tr_legacy{4};

  std::uint64_t x = 0x9E3779B97F4A7C15ULL;  // xorshift64: deterministic
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };

  SimTime now = 0;
  std::size_t decisions = 0;
  for (int step = 0; step < 4000; ++step) {
    now += static_cast<SimTime>(next() % us(200));
    const auto backend = static_cast<BackendId>(next() % 4);
    // Backend 3 runs slow in bursts; everyone else jitters around 100us.
    // Occasionally *every* backend inflates (exercises the global guard).
    const bool global_burst = (step / 500) % 4 == 3;
    SimTime sample = us(80) + static_cast<SimTime>(next() % us(40));
    if (backend == 3 && (step / 300) % 2 == 1) sample += ms(1);
    if (global_burst) sample += ms(2);
    tr_fresh.record(backend, now, sample);
    tr_legacy.record(backend, now, sample);

    const auto d_fresh = fresh.control_step(tr_fresh, {}, now);
    const auto d_legacy = legacy.evaluate(tr_legacy, now);
    ASSERT_EQ(d_fresh.has_value(), d_legacy.has_value()) << "step " << step;
    if (d_fresh.has_value()) {
      ++decisions;
      EXPECT_FALSE(d_fresh->is_weight_vector()) << "step " << step;
      EXPECT_EQ(d_fresh->from, d_legacy->from) << "step " << step;
      EXPECT_EQ(d_fresh->fraction, d_legacy->fraction) << "step " << step;
      EXPECT_EQ(d_fresh->worst_score_ns, d_legacy->worst_score_ns)
          << "step " << step;
      EXPECT_EQ(d_fresh->best_score_ns, d_legacy->best_score_ns)
          << "step " << step;
    }
  }
  EXPECT_GT(decisions, 0u);  // the stream must actually exercise the law
  EXPECT_EQ(fresh.shifts(), legacy.shifts());
  EXPECT_EQ(fresh.last_shift_time(), legacy.last_shift_time());
  EXPECT_EQ(fresh.guard_holds(), legacy.guard_holds());
}

TEST(AlphaShiftDifferential, MatchesLegacyOnDefaultConfig) {
  AlphaShiftConfig cfg;
  cfg.min_samples = 2;
  cfg.cooldown = us(300);
  drive_alpha_differential(cfg);
}

TEST(AlphaShiftDifferential, MatchesLegacyWithGuardAndConfirm) {
  AlphaShiftConfig cfg;
  cfg.min_samples = 2;
  cfg.cooldown = us(300);
  cfg.global_guard = 1.5;
  cfg.guard_tau = ms(5);
  cfg.confirm = us(200);
  drive_alpha_differential(cfg);
}

TEST(AlphaShiftDifferential, QuickRigDigestPinnedAcrossRefactor) {
  // The perf_dataplane --quick rig (seed 2022, 400ms, 2 servers, 2 client
  // hosts) produced this digest before the WeightController extraction; the
  // refactored default α-shift path must reproduce it bit for bit.
  ClusterRigConfig cfg;
  cfg.mode = LbMode::kInband;
  cfg.num_servers = 2;
  cfg.num_client_hosts = 2;
  cfg.duration = ms(400);
  cfg.inject_time = cfg.duration / 2;
  cfg.seed = 2022;
  cfg.client.connections = 4;
  cfg.client.pipeline = 4;
  cfg.server.workers = 8;
  cfg.share_sample_interval = ms(10);
  cfg.audit_interval = 0;
  ClusterRig rig{cfg};
  rig.run();
  EXPECT_EQ(rig.state_digest(), pins::kQuickRig)
      << std::hex << "0x" << rig.state_digest();
}

}  // namespace
}  // namespace inband
