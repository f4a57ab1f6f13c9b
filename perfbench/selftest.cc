// Self-test of the benchmark's own arithmetic on synthetic inputs: span self
// times, percentile choice and ratio formatting. Exits non-zero on the first
// failure; perfbench/run.py runs it before every benchmark run.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "span_ledger.h"
#include "stats.h"

namespace perfbench {
namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

// Timeline (ns), nesting by indentation:
//   0..100   step A (delivery: runs an LB handler)
//     10..80   lb, 3 packets
//       20..30   core on_packet
//       40..45   core pick
//       50..70   fault
//   100..110 loop overhead (uncovered)
//   110..150 step B (timer)
//     120..126 fault
//   150..160 uncovered
void test_self_times() {
  SpanLedger l;
  l.start(0);
  l.begin(Layer::kSimTimer, 0);
  l.begin(Layer::kLb, 10);
  l.begin(Layer::kCoreOnPacket, 20);
  l.end(30);
  l.begin(Layer::kCorePick, 40);
  l.end(45);
  l.begin(Layer::kFault, 50);
  l.end(70);
  l.end(80, 3);
  l.end(100);
  l.begin(Layer::kSimTimer, 110);
  l.begin(Layer::kFault, 120);
  l.end(126);
  l.end(150);
  l.stop(160);

  const LayerTotals& deliver = l.totals(Layer::kSimDeliver);
  const LayerTotals& timer = l.totals(Layer::kSimTimer);
  const LayerTotals& lb = l.totals(Layer::kLb);
  const LayerTotals& fault = l.totals(Layer::kFault);
  expect(deliver.spans == 1 && deliver.self_ns == 100 - 70,
         "delivery step self = step - handler span");
  expect(timer.spans == 1 && timer.self_ns == 40 - 6,
         "timer step self = step - fault child");
  expect(lb.self_ns == 70 - 10 - 5 - 20,
         "lb self = span - core and fault children");
  expect(lb.items == 3, "lb span carries its packet count");
  expect(l.totals(Layer::kCorePick).self_ns == 5 &&
             l.totals(Layer::kCoreOnPacket).self_ns == 10,
         "leaf self = span");
  expect(fault.spans == 2 && fault.self_ns == 26, "fault spans accumulate");
  expect(l.total_ns() == 160 && l.uncovered_ns() == 20,
         "uncovered = total - top-level spans");
  expect(l.balanced(), "self times + uncovered add up to the total");
  expect(l.depth() == 0, "all spans closed");
}

void test_percentiles() {
  // Nearest rank on 1..1000: p50 is the 500th value, p99.9 the 999th.
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  expect(quantile(v, 0.5) == 500.0, "p50 of 1..1000");
  expect(quantile(v, 0.999) == 999.0, "p99.9 of 1..1000");
  expect(samples_beyond(1000, 0.999) == 1, "one sample beyond p99.9 of 1000");
  expect(samples_beyond(50'000, 0.999) == 50, "50 beyond p99.9 of 50000");

  // The chosen percentile leaves at least ten samples beyond it.
  expect(highest_supported_quantile(1000, 10) == 0.99, "1000 samples: p99");
  expect(highest_supported_quantile(10'000, 10) == 0.999,
         "10000 samples: p99.9");
  expect(highest_supported_quantile(9'999, 10) == 0.99,
         "9999 samples: p99.9 has only 9 beyond");
  expect(highest_supported_quantile(5, 10) == 0.0, "too few samples");
  for (std::size_t n = 1; n < 30'000; n += 37) {
    const double q = highest_supported_quantile(n, 10);
    if (q > 0.0 && samples_beyond(n, q) < 10) {
      expect(false, "chosen percentile has fewer than 10 samples beyond");
      break;
    }
  }
  expect(median({3.0, 1.0, 2.0}) == 2.0 && median({4.0, 1.0, 2.0, 3.0}) == 2.5,
         "median of odd and even counts");
}

void test_ratios() {
  const std::string s = format_ratio(12, "picks", 666, "lb packets");
  expect(s == "0.01802 (12 picks / 666 lb packets)", "ratio printed with base");
  expect(ratio(1, 0) == 0.0, "ratio over an empty base is 0");
  expect(format_ratio(0, "a", 0, "b") == "0 (0 a / 0 b)",
         "empty base still printed");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::test_self_times();
  perfbench::test_percentiles();
  perfbench::test_ratios();
  if (perfbench::g_failures != 0) return EXIT_FAILURE;
  std::fprintf(stderr, "selftest ok\n");
  return EXIT_SUCCESS;
}
