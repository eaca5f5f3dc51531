#include "runtime/latency.hpp"

#include <gtest/gtest.h>

#include "util/stats.hpp"

namespace ilu {
namespace {

LatencyModel exactly(Duration d) {
  return LatencyModel::shifted(d, LatencyModel::zero());
}

TEST(LatencyModel, ZeroAlwaysZero) {
  Rng rng(1);
  auto m = LatencyModel::zero();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(m.sample(rng), Duration::zero());
  EXPECT_EQ(m.mean(), Duration::zero());
}

TEST(LatencyModel, ConstantIsExact) {
  // A constant latency is a floor over nothing: exact, and draws nothing.
  Rng rng(2);
  auto m = LatencyModel::shifted(msecs(3), LatencyModel::zero());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(m.sample(rng), msecs(3));
  EXPECT_EQ(m.mean(), msecs(3));
  EXPECT_EQ(m.lower_bound(), msecs(3));
  EXPECT_EQ(rng.next_u64(), Rng(2).next_u64());
}

TEST(LatencyModel, UniformWithinBounds) {
  Rng rng(3);
  auto m = LatencyModel::uniform(msecs(1), msecs(5));
  for (int i = 0; i < 10000; ++i) {
    auto s = m.sample(rng);
    ASSERT_GE(s, msecs(1));
    ASSERT_LE(s, msecs(5));
  }
  EXPECT_EQ(m.mean(), msecs(3));
}

TEST(LatencyModel, NormalClampedNonNegative) {
  Rng rng(4);
  auto m = LatencyModel::normal(usecs(100), usecs(500));
  for (int i = 0; i < 10000; ++i) {
    ASSERT_GE(m.sample(rng), Duration::zero());
  }
}

TEST(LatencyModel, NormalSampleMeanConverges) {
  Rng rng(5);
  auto m = LatencyModel::normal(msecs(10), msecs(1));
  Summary s;
  for (int i = 0; i < 50000; ++i) s.add_ms(m.sample(rng));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
}

TEST(LatencyModel, LognormalMedianConverges) {
  Rng rng(6);
  auto m = LatencyModel::lognormal(msecs(20), 0.5);
  Summary s;
  for (int i = 0; i < 50000; ++i) s.add_ms(m.sample(rng));
  EXPECT_NEAR(s.p50(), 20.0, 0.5);
  // Right-skew: mean above median.
  EXPECT_GT(s.mean(), s.p50());
}

TEST(LatencyModel, LognormalAnalyticMean) {
  auto m = LatencyModel::lognormal(msecs(20), 0.5);
  // E = median * exp(sigma^2/2) = 20 * exp(0.125) ~ 22.66 ms
  EXPECT_NEAR(to_ms(m.mean()), 22.66, 0.05);
}

TEST(LatencyModel, SpikyAddsTailMass) {
  Rng rng(7);
  auto m = LatencyModel::spiky(exactly(msecs(1)), 0.1, exactly(msecs(100)));
  int spikes = 0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (m.sample(rng) > msecs(50)) ++spikes;
  }
  EXPECT_NEAR(static_cast<double>(spikes) / n, 0.1, 0.01);
  // mean = 1 + 0.1 * 100 = 11 ms
  EXPECT_NEAR(to_ms(m.mean()), 11.0, 0.01);
}

TEST(LatencyModel, SpikyZeroProbabilityIsBase) {
  Rng rng(8);
  auto m = LatencyModel::spiky(exactly(msecs(2)), 0.0, exactly(secs(1)));
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(m.sample(rng), msecs(2));
}

TEST(LatencyModel, DefaultConstructedIsZero) {
  Rng rng(9);
  LatencyModel m;
  EXPECT_EQ(m.sample(rng), Duration::zero());
}

TEST(LatencyModel, SamplingIsDeterministicGivenSeed) {
  auto m = LatencyModel::lognormal(msecs(5), 1.0);
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(m.sample(a), m.sample(b));
  }
}

}  // namespace
}  // namespace ilu
