// Deterministic random number generation.
//
// The simulator must be reproducible across runs and platforms, so we avoid
// std::<distribution> types (their output sequences are implementation
// defined) and implement the engine and every distribution ourselves.
//
// Engine: xoshiro256++ (Blackman & Vigna), seeded via SplitMix64 so that any
// 64-bit seed — including 0 — yields a well-mixed state.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/assert.h"
#include "util/shard.h"

namespace inband {

// Stateless seed mixer; also usable as a cheap hash of a counter.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// xoshiro256++ engine. Satisfies UniformRandomBitGenerator.
INBAND_SHARD_LOCAL(owner)
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x1ba9d41e00000001ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& w : state_) {
      x = splitmix64(x);
      w = x;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [lo, hi] inclusive. Uses Lemire's multiply-shift
  // rejection method to avoid modulo bias.
  std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi);

  // Uniform double in [0, 1).
  double uniform_double() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double uniform_double(double lo, double hi) {
    return lo + (hi - lo) * uniform_double();
  }

  // true with probability p.
  bool bernoulli(double p) { return uniform_double() < p; }

  // Exponential with the given mean (> 0).
  double exponential(double mean);

  // Standard normal via Box–Muller (caches the spare variate).
  double normal();
  double normal(double mu, double sigma) { return mu + sigma * normal(); }

  // Log-normal such that the *median* of the output is `median` and the
  // underlying normal has standard deviation `sigma` (in log space).
  double lognormal_median(double median, double sigma);

  // Pareto with scale x_m > 0 and shape alpha > 0.
  double pareto(double x_m, double alpha);

  // Engine state, exposed for determinism digests (check/state_digest):
  // two same-seed runs must leave every RNG in an identical state.
  const std::array<std::uint64_t, 4>& state() const { return state_; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace inband
