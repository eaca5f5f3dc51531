#include "util/rng.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

namespace ilu {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Expand the seed into 256 bits of state with splitmix64, per the
  // xoshiro authors' recommendation. Guard against the all-zero state.
  std::uint64_t x = seed;
  for (auto& s : s_) {
    x = splitmix64(x);
    s = x;
  }
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng Rng::substream(std::uint64_t tag) const {
  return Rng(hash_combine(splitmix64(s_[0] ^ s_[3]), splitmix64(tag)));
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  assert(n > 0);
  // Lemire's rejection-free-in-practice multiply-shift bounded draw.
  __uint128_t m = static_cast<__uint128_t>(next_u64()) * n;
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::exponential(double mean) {
  assert(mean > 0.0);
  double u = uniform();
  // u in [0,1); 1-u in (0,1] so log is finite.
  return -mean * std::log(1.0 - u);
}

double Rng::normal() {
  double u1 = 1.0 - uniform();  // (0, 1]
  double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::lognormal_median(double median, double sigma) {
  assert(median > 0.0);
  return median * std::exp(sigma * normal());
}

std::uint64_t Rng::poisson(double lambda) {
  assert(lambda >= 0.0);
  if (lambda <= 0.0) return 0;
  if (lambda < 30.0) {
    // Knuth's multiplication method.
    const double limit = std::exp(-lambda);
    double prod = uniform();
    std::uint64_t n = 0;
    while (prod > limit) {
      ++n;
      prod *= uniform();
    }
    return n;
  }
  // Normal approximation with continuity correction; adequate for the
  // minute-bucket invocation counts used by the trace generator.
  double v = normal(lambda, std::sqrt(lambda)) + 0.5;
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

}  // namespace ilu
