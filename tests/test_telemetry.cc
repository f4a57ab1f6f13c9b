// Unit tests: telemetry module (histogram, EWMA, sliding window, series).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "telemetry/counters.h"
#include "telemetry/ewma.h"
#include "telemetry/histogram.h"
#include "telemetry/sliding_window.h"
#include "telemetry/time_series.h"
#include "util/rng.h"
#include "util/time.h"

namespace inband {
namespace {

// --- histogram bucket mechanics ---

TEST(Histogram, SmallValuesAreExact) {
  Histogram h;
  for (std::int64_t v = 0; v < 128; ++v) {
    EXPECT_EQ(h.bucket_low(h.index_for(v)), v);
    EXPECT_EQ(h.bucket_high(h.index_for(v)), v + 1);
  }
}

TEST(Histogram, IndexBoundsContainValue) {
  Histogram h;
  for (std::int64_t v : {std::int64_t{128}, std::int64_t{129},
                         std::int64_t{1000}, std::int64_t{4095},
                         std::int64_t{4096}, std::int64_t{65535},
                         std::int64_t{1'000'000}, std::int64_t{123'456'789},
                         sec(10)}) {
    const auto idx = h.index_for(v);
    EXPECT_LE(h.bucket_low(idx), v);
    EXPECT_GT(h.bucket_high(idx), v);
  }
}

TEST(Histogram, BucketsAreContiguous) {
  Histogram h;
  for (std::size_t i = 0; i + 1 < 6 * Histogram::kSubBucketCount; ++i) {
    EXPECT_EQ(h.bucket_high(i), h.bucket_low(i + 1)) << "bucket " << i;
  }
}

TEST(Histogram, RelativePrecisionBounded) {
  Histogram h;
  // Bucket width / value <= 2^-kSubBucketBits for values >= 128.
  for (std::int64_t v = 128; v < 100'000'000; v = v * 3 + 1) {
    const auto idx = h.index_for(v);
    const double width =
        static_cast<double>(h.bucket_high(idx) - h.bucket_low(idx));
    EXPECT_LE(width / static_cast<double>(v), 1.0 / 64 + 1e-12);
  }
}

// --- histogram stats ---

TEST(Histogram, EmptyIsSafe) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.percentile(0.5), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.record(us(100));
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.percentile(0.0), us(100));
  EXPECT_EQ(h.percentile(1.0), us(100));
  EXPECT_EQ(h.min(), us(100));
  EXPECT_EQ(h.max(), us(100));
}

TEST(Histogram, NegativeClampsToZero) {
  Histogram h;
  h.record(-5);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, OverflowClampsAndCounts) {
  Histogram h{us(1000)};
  h.record(sec(5));
  EXPECT_EQ(h.clamped(), 1u);
  EXPECT_LE(h.max(), us(1000));
}

TEST(Histogram, PercentileAccuracyOnUniformData) {
  Histogram h;
  Rng rng{5};
  std::vector<std::int64_t> vals;
  for (int i = 0; i < 100'000; ++i) {
    const auto v = static_cast<std::int64_t>(rng.uniform_u64(1000, 1'000'000));
    vals.push_back(v);
    h.record(v);
  }
  std::sort(vals.begin(), vals.end());
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    const auto exact = vals[static_cast<std::size_t>(
        q * static_cast<double>(vals.size() - 1))];
    const auto approx = h.percentile(q);
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                static_cast<double>(exact) * 0.02)
        << "q=" << q;
  }
}

TEST(Histogram, MeanMatchesArithmetic) {
  Histogram h;
  double sum = 0;
  for (int i = 1; i <= 1000; ++i) {
    h.record(i * 100);
    sum += i * 100;
  }
  EXPECT_NEAR(h.mean(), sum / 1000, 1e-9);
}

TEST(Histogram, MergeCombinesCounts) {
  Histogram a, b;
  a.record(us(10));
  b.record(us(1000));
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), us(10));
  EXPECT_EQ(a.max(), us(1000));
}

TEST(Histogram, MergeIntoEmpty) {
  Histogram a, b;
  b.record(42);
  a.merge(b);
  EXPECT_EQ(a.min(), 42);
  EXPECT_EQ(a.max(), 42);
}

TEST(Histogram, ResetClearsEverything) {
  Histogram h;
  h.record(100);
  h.reset();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.percentile(0.5), 0);
}

TEST(Histogram, RecordNWeights) {
  Histogram h;
  h.record_n(100, 99);
  h.record_n(1'000'000, 1);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_LT(h.percentile(0.5), 200);
  EXPECT_GT(h.percentile(0.995), 500'000);
}

// --- EWMA ---

TEST(DecayingEwma, DecaysWithTime) {
  DecayingEwma e{ms(1)};
  e.record(0, 100.0);
  e.record(ms(1), 0.0);  // one tau later: keep ~ e^-1
  EXPECT_NEAR(e.value(), 100.0 * std::exp(-1.0), 1.0);
}

TEST(DecayingEwma, RapidSamplesBarelyDecay) {
  DecayingEwma e{ms(10)};
  e.record(0, 100.0);
  e.record(10, 100.0);
  e.record(20, 0.0);  // dt=10ns << tau
  EXPECT_GT(e.value(), 99.0);
}

TEST(DecayingEwma, TracksLastSampleTime) {
  DecayingEwma e{ms(1)};
  EXPECT_EQ(e.last_sample_time(), kNoTime);
  e.record(us(5), 1.0);
  EXPECT_EQ(e.last_sample_time(), us(5));
}

// --- sliding window ---

TEST(SlidingWindow, ForgetsOldSamples) {
  SlidingWindowHistogram w{ms(10), 5};
  w.record(0, us(100));
  EXPECT_EQ(w.count(ms(1)), 1u);
  // After far more than a window, the old sample is gone.
  EXPECT_EQ(w.count(ms(50)), 0u);
}

TEST(SlidingWindow, KeepsSamplesWithinWindow) {
  SlidingWindowHistogram w{ms(10), 5};
  w.record(ms(1), us(1));
  w.record(ms(5), us(2));
  w.record(ms(9), us(3));
  EXPECT_EQ(w.count(ms(9)), 3u);
}

TEST(SlidingWindow, PartialExpiryBySlices) {
  SlidingWindowHistogram w{ms(10), 10};  // 1ms slices
  w.record(ms(0), 100);
  w.record(ms(9), 200);
  // At t=15ms, the slice containing t=0 rotated out, t=9 still in.
  EXPECT_EQ(w.count(ms(15)), 1u);
  EXPECT_EQ(w.percentile(ms(15), 0.5), 200);
}

TEST(SlidingWindow, PercentileOverWindow) {
  SlidingWindowHistogram w{ms(100), 10};
  for (int i = 1; i <= 100; ++i) w.record(ms(1), i * 1000);
  const auto p50 = w.percentile(ms(2), 0.5);
  EXPECT_NEAR(static_cast<double>(p50), 50'000.0, 2000.0);
}

TEST(SlidingWindow, ResetForgets) {
  SlidingWindowHistogram w{ms(10), 5};
  w.record(ms(1), 10);
  w.reset();
  EXPECT_EQ(w.count(ms(1)), 0u);
}

TEST(SlidingWindow, ResetClearsMergedScratch) {
  SlidingWindowHistogram w{ms(10), 5};
  w.record(us(1), 100);
  const Histogram& m = w.merged(us(2));
  EXPECT_EQ(m.count(), 1u);
  // The reference aliases the internal merge scratch; a reset must not
  // leave it reporting forgotten samples.
  w.reset();
  EXPECT_EQ(m.count(), 0u);
}

TEST(SlidingWindow, ResetKeepsTimeAnchor) {
  SlidingWindowHistogram w{ms(10), 5};
  w.record(ms(5), 100);
  w.reset();
  // The ring is empty but still anchored: the next record lands in the
  // slice its timestamp maps to, and the window keeps rotating from there.
  w.record(ms(6), 200);
  EXPECT_EQ(w.count(ms(6)), 1u);
  EXPECT_EQ(w.percentile(ms(6), 0.5), 200);
  EXPECT_EQ(w.count(ms(30)), 0u);
}

TEST(SlidingWindow, ResetStillRejectsTimeGoingBackwards) {
  // reset() must not un-anchor the clock: re-anchoring on the next record
  // would silently accept a non-monotonic time and shift the slice mapping.
  SlidingWindowHistogram w{ms(10), 5};
  w.record(ms(5), 100);
  w.reset();
  EXPECT_DEATH(w.record(0, 1), "time went backwards");
}

// --- time series ---

TEST(TimeSeries, BucketizeMean) {
  TimeSeries ts;
  ts.add(ms(1), 10.0);
  ts.add(ms(2), 20.0);
  ts.add(ms(11), 30.0);
  const auto rows = ts.bucketize(ms(10), Agg::kMean);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].bucket_start, 0);
  EXPECT_DOUBLE_EQ(rows[0].value, 15.0);
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_DOUBLE_EQ(rows[1].value, 30.0);
}

TEST(TimeSeries, EmptyBucketsEmittedWithNaN) {
  TimeSeries ts;
  ts.add(ms(1), 1.0);
  ts.add(ms(25), 2.0);
  const auto rows = ts.bucketize(ms(10), Agg::kMean);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1].count, 0u);
  EXPECT_TRUE(std::isnan(rows[1].value));
}

TEST(TimeSeries, BucketizeP95) {
  TimeSeries ts;
  for (int i = 1; i <= 100; ++i) ts.add(ms(1), i);
  const auto rows = ts.bucketize(ms(10), Agg::kP95);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NEAR(rows[0].value, 95.0, 1.0);
}

TEST(TimeSeries, BucketizeMinMaxCount) {
  TimeSeries ts;
  ts.add(0, 5.0);
  ts.add(1, -2.0);
  EXPECT_DOUBLE_EQ(ts.bucketize(ms(1), Agg::kMin)[0].value, -2.0);
  EXPECT_DOUBLE_EQ(ts.bucketize(ms(1), Agg::kMax)[0].value, 5.0);
  EXPECT_DOUBLE_EQ(ts.bucketize(ms(1), Agg::kCount)[0].value, 2.0);
}

TEST(TimeSeries, UnsortedInputHandled) {
  TimeSeries ts;
  ts.add(ms(15), 2.0);
  ts.add(ms(1), 1.0);
  const auto rows = ts.bucketize(ms(10), Agg::kMean);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].value, 1.0);
  EXPECT_DOUBLE_EQ(rows[1].value, 2.0);
}

TEST(ExactPercentile, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(exact_percentile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(exact_percentile({1.0, 2.0, 3.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(exact_percentile({1.0, 2.0, 3.0}, 1.0), 3.0);
}

TEST(ExactPercentile, EmptyReturnsNaN) {
  EXPECT_TRUE(std::isnan(exact_percentile({}, 0.5)));
}

TEST(AggName, Names) {
  EXPECT_STREQ(agg_name(Agg::kP95), "p95");
  EXPECT_STREQ(agg_name(Agg::kMean), "mean");
}

// --- counters ---

TEST(Counters, GetCreatesAndIncrements) {
  CounterSet c;
  ++c.get("a");
  ++c.get("a");
  EXPECT_EQ(c.value("a"), 2u);
  EXPECT_EQ(c.value("missing"), 0u);
}

TEST(Counters, StableReferences) {
  CounterSet c;
  auto& a = c.get("a");
  c.get("b");
  c.get("c");
  ++a;
  EXPECT_EQ(c.value("a"), 1u);
}

TEST(Counters, SnapshotSortedByName) {
  CounterSet c;
  c.get("zeta") = 1;
  c.get("alpha") = 2;
  const auto snap = c.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "alpha");
  EXPECT_EQ(snap[1].name, "zeta");
}

TEST(Counters, ResetZeroes) {
  CounterSet c;
  c.get("a") = 5;
  c.reset();
  EXPECT_EQ(c.value("a"), 0u);
}


// --- parameterized percentile accuracy across distributions ---

enum class Dist { kUniform, kLognormal, kPareto, kBimodal };

class HistogramAccuracy
    : public testing::TestWithParam<std::tuple<Dist, double>> {};

TEST_P(HistogramAccuracy, WithinRelativePrecision) {
  const auto [dist, q] = GetParam();
  Histogram h;
  Rng rng{31};
  std::vector<std::int64_t> vals;
  vals.reserve(50'000);
  for (int i = 0; i < 50'000; ++i) {
    std::int64_t v = 0;
    switch (dist) {
      case Dist::kUniform:
        v = static_cast<std::int64_t>(rng.uniform_u64(us(10), ms(10)));
        break;
      case Dist::kLognormal:
        v = static_cast<std::int64_t>(
            rng.lognormal_median(static_cast<double>(us(200)), 0.7));
        break;
      case Dist::kPareto:
        v = static_cast<std::int64_t>(
            rng.pareto(static_cast<double>(us(50)), 1.3));
        break;
      case Dist::kBimodal:
        v = rng.bernoulli(0.9)
                ? static_cast<std::int64_t>(us(100))
                : static_cast<std::int64_t>(ms(2));
        break;
    }
    v = std::min<std::int64_t>(v, sec(15));
    vals.push_back(v);
    h.record(v);
  }
  std::sort(vals.begin(), vals.end());
  const auto exact = vals[std::min(
      vals.size() - 1,
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(vals.size()))))];
  const auto approx = h.percentile(q);
  // Log-bucket precision: <= ~2/64 relative error plus one rank of slack.
  EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
              std::max(4.0, static_cast<double>(exact) * 0.04))
      << "dist=" << static_cast<int>(dist) << " q=" << q;
}

INSTANTIATE_TEST_SUITE_P(
    DistributionsAndQuantiles, HistogramAccuracy,
    testing::Combine(testing::Values(Dist::kUniform, Dist::kLognormal,
                                     Dist::kPareto, Dist::kBimodal),
                     testing::Values(0.5, 0.9, 0.95, 0.99, 0.999)));

// Sliding-window invariant across slice counts: a sample is queryable for
// at least window*(slices-1)/slices and at most window + one slice.
class SlidingWindowRetention : public testing::TestWithParam<int> {};

TEST_P(SlidingWindowRetention, RetentionBounds) {
  const int slices = GetParam();
  const SimTime window = ms(10);
  SlidingWindowHistogram w{window, slices};
  const SimTime slice_len = window / slices;
  w.record(0, 1234);
  // Still present just before the guaranteed retention boundary.
  EXPECT_EQ(w.count(window - slice_len - 1), 1u);
  // Definitely gone after window + one slice.
  SlidingWindowHistogram w2{window, slices};
  w2.record(0, 1234);
  EXPECT_EQ(w2.count(window + slice_len), 0u);
}

INSTANTIATE_TEST_SUITE_P(SliceCounts, SlidingWindowRetention,
                         testing::Values(2, 4, 8, 10));

}  // namespace
}  // namespace inband
