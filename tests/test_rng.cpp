#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace ilu {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, SubstreamsAreDeterministicAndDistinct) {
  Rng root(7);
  Rng s1 = root.substream(1);
  Rng s1_again = Rng(7).substream(1);
  Rng s2 = root.substream(2);
  EXPECT_EQ(s1.next_u64(), s1_again.next_u64());
  EXPECT_NE(Rng(7).substream(1).next_u64(), s2.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform(5.0, 9.0);
    ASSERT_GE(u, 5.0);
    ASSERT_LT(u, 9.0);
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(5);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 70000; ++i) {
    ++counts[rng.uniform_index(7)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 8000);
    EXPECT_LT(c, 12000);
  }
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(6);
  double sum = 0.0;
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, ExponentialIsNonNegative) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_GE(rng.exponential(0.001), 0.0);
  }
}

TEST(Rng, NormalMomentsConverge) {
  Rng rng(8);
  double sum = 0.0, sq = 0.0;
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) {
    double v = rng.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, LognormalMedianConverges) {
  Rng rng(9);
  std::vector<double> v;
  constexpr int n = 100001;
  v.reserve(n);
  for (int i = 0; i < n; ++i) v.push_back(rng.lognormal_median(50.0, 1.0));
  std::nth_element(v.begin(), v.begin() + n / 2, v.end());
  EXPECT_NEAR(v[n / 2], 50.0, 2.0);
}

TEST(Rng, PoissonMeanSmallLambda) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(2.5));
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, PoissonMeanLargeLambda) {
  Rng rng(12);
  double sum = 0.0;
  constexpr int n = 50000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(100.0));
  EXPECT_NEAR(sum / n, 100.0, 1.0);
}

TEST(Rng, PoissonZeroLambda) {
  Rng rng(13);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(14);
  int hits = 0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(16);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

}  // namespace
}  // namespace ilu
