// Small statistics helpers shared by the driver and its self-test.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

// Median of `v` (mean of the middle two for an even count); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile: the index of the q-quantile in a sorted sample of
// size n >= 1, i.e. the smallest index with at least q*n samples at or below
// it.
inline std::size_t rank_index(std::size_t n, double q) {
  // The epsilon keeps q*n that should be whole (0.999 * 10000) from rounding
  // up past it.
  const auto r = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return r == 0 ? 0 : std::min(r, n) - 1;
}

// Samples strictly beyond the q-quantile's rank.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - 1 - rank_index(n, q);
}

// The highest of the ladder's quantiles that leaves at least `min_beyond`
// samples beyond it in a sample of size n; 0 when none does.
inline double highest_supported_quantile(std::size_t n,
                                         std::size_t min_beyond) {
  double best = 0.0;
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (samples_beyond(n, q) >= min_beyond) best = q;
  }
  return best;
}

// Value at the q-quantile of an unsorted sample (sorted in place); 0 when
// empty.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = rank_index(v.size(), q);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

// num / den, 0 when den is 0.
inline double ratio(double num, double den) {
  return den != 0.0 ? num / den : 0.0;
}

// A ratio as the report prints it: the value followed by its base, e.g.
// "0.0180 (12 picks / 666 lb packets)". A ratio never appears without the
// counts it was made from.
inline std::string format_ratio(double num, const char* num_name, double den,
                                const char* den_name) {
  char buf[192];
  std::snprintf(buf, sizeof buf, "%.4g (%.6g %s / %.6g %s)", ratio(num, den),
                num, num_name, den, den_name);
  return buf;
}

}  // namespace perfbench
