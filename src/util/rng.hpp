#pragma once

#include <cstdint>
#include <vector>

#include "util/hash.hpp"

/// Deterministic pseudo-random number generation.
///
/// Every stochastic component in the library draws from an explicitly seeded
/// Rng so that simulations are reproducible: the same seed yields the same
/// trace, the same latency jitter, and the same event order.
namespace ilu {

/// xoshiro256** 1.0 (Blackman & Vigna). Fast, high-quality, 256-bit state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x1234567890abcdefULL);

  /// Derive an independent sub-stream, e.g. one per function or per worker.
  /// Sub-streams with different tags are decorrelated via splitmix64.
  Rng substream(std::uint64_t tag) const;

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Exponential with the given mean (= 1/rate). mean must be > 0.
  double exponential(double mean);

  /// Standard normal via Box-Muller (no state carried between calls).
  double normal();

  /// Normal with mean/stddev.
  double normal(double mean, double stddev);

  /// Log-normal parameterized by the *median* (exp(mu)) and sigma of the
  /// underlying normal. Median parameterization is the natural one for
  /// latency distributions ("p50 is X, tail spread sigma").
  double lognormal_median(double median, double sigma);

  /// Poisson-distributed count with the given mean (Knuth for small lambda,
  /// normal approximation for large).
  std::uint64_t poisson(double lambda);

  /// true with probability p.
  bool bernoulli(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_index(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace ilu
