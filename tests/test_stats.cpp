#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <vector>

#include "util/rng.hpp"

namespace ilu {
namespace {

TEST(Welford, MatchesTwoPassComputation) {
  Rng rng(1);
  std::vector<double> xs;
  Welford w;
  for (int i = 0; i < 1000; ++i) {
    double x = rng.uniform(0.0, 100.0);
    xs.push_back(x);
    w.add(x);
  }
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(w.mean(), mean, 1e-9);
  EXPECT_NEAR(w.variance(), var, 1e-6);
}

TEST(Welford, EmptyAndSingle) {
  Welford w;
  EXPECT_EQ(w.count(), 0u);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  w.add(5.0);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  EXPECT_DOUBLE_EQ(w.cov(), 0.0);
}

TEST(Welford, CovOfConstantIsZero) {
  Welford w;
  for (int i = 0; i < 10; ++i) w.add(7.0);
  EXPECT_DOUBLE_EQ(w.cov(), 0.0);
}

TEST(Welford, ResetClearsState) {
  Welford w;
  w.add(1.0);
  w.add(2.0);
  w.reset();
  EXPECT_EQ(w.count(), 0u);
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
}

TEST(MovingWindow, EvictsOldest) {
  MovingWindow mw(3);
  mw.add(1.0);
  mw.add(2.0);
  mw.add(3.0);
  EXPECT_DOUBLE_EQ(mw.mean(), 2.0);
  mw.add(10.0);  // evicts 1.0
  EXPECT_DOUBLE_EQ(mw.mean(), 5.0);
  EXPECT_EQ(mw.size(), 3u);
}

/// The deque-backed window the ring replaced, kept as the reference for
/// bit-identical means: push back and add, then subtract and pop the oldest.
class DequeWindow {
 public:
  explicit DequeWindow(std::size_t capacity) : capacity_(capacity) {}
  void add(double x) {
    values_.push_back(x);
    sum_ += x;
    if (values_.size() > capacity_) {
      sum_ -= values_.front();
      values_.pop_front();
    }
  }
  std::size_t size() const { return values_.size(); }
  double mean() const {
    return values_.empty() ? 0.0
                           : sum_ / static_cast<double>(values_.size());
  }

 private:
  std::size_t capacity_;
  std::deque<double> values_;
  double sum_ = 0.0;
};

TEST(MovingWindow, RingMeansAreBitIdenticalToDequeWindow) {
  for (std::size_t capacity : {1u, 2u, 10u, 32u}) {
    Rng rng(capacity);
    MovingWindow ring(capacity);
    DequeWindow reference(capacity);
    for (int i = 0; i < 5000; ++i) {
      // Mixed magnitudes make the rounding of the running sum depend on
      // the exact order of its additions and subtractions.
      double x = rng.lognormal_median(1.0, 3.0) * (i % 7 == 0 ? 1e6 : 1.0);
      ring.add(x);
      reference.add(x);
      ASSERT_EQ(ring.size(), reference.size());
      const double a = ring.mean();
      const double b = reference.mean();
      ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0)
          << "capacity " << capacity << " sample " << i << ": " << a
          << " != " << b;
    }
  }
}

TEST(MovingWindow, EmptyIsZero) {
  MovingWindow mw(2);
  EXPECT_TRUE(mw.empty());
  EXPECT_DOUBLE_EQ(mw.mean(), 0.0);
}

TEST(SlidingRateMeter, CountsWithinWindowOnly) {
  SlidingRateMeter m(secs(10));
  m.record(secs(0));
  m.record(secs(5));
  m.record(secs(9));
  // Before a full window the span observed so far (9 s) is the divisor.
  EXPECT_DOUBLE_EQ(m.rate_per_sec(secs(9)), 3.0 / 9.0);
  EXPECT_DOUBLE_EQ(m.rate_per_sec(secs(11)), 2.0 / 10.0);  // t=0 expired
  EXPECT_DOUBLE_EQ(m.rate_per_sec(secs(25)), 0.0);
}

TEST(SlidingRateMeter, RatePerSecond) {
  SlidingRateMeter m(secs(10));
  // 20 events over 9.5 s; a full window has not elapsed yet, so the rate is
  // computed over the observed span.
  for (int i = 0; i < 20; ++i) m.record(secs(i * 0.5));
  EXPECT_NEAR(m.rate_per_sec(secs(9.5)), 20.0 / 9.5, 0.01);
  // Once past a full window, the nominal window is the denominator: events
  // before t=2 s have expired, leaving 16 of the originals plus the new one.
  m.record(secs(12));
  EXPECT_NEAR(m.rate_per_sec(secs(12)), 17.0 / 10.0, 0.01);
}

TEST(SlidingRateMeter, EarlyRateNotUnderestimated) {
  SlidingRateMeter m(mins(30));
  // 1 event/s for the first 60 s of a 30-minute window.
  for (int i = 0; i < 60; ++i) m.record(secs(i));
  EXPECT_NEAR(m.rate_per_sec(secs(59)), 1.0, 0.05);
}

TEST(Summary, PercentilesOfKnownSample) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_NEAR(s.p50(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100.0), 100.0, 1e-9);
  EXPECT_NEAR(s.p99(), 99.01, 1e-9);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(Summary, SingleValue) {
  Summary s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.p50(), 7.0);
  EXPECT_DOUBLE_EQ(s.p99(), 7.0);
}

TEST(Summary, AddAfterPercentileStillSorted) {
  Summary s;
  s.add(3.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 3.0);
  s.add(0.5);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 0.5);
}

TEST(Summary, AddDurationMs) {
  Summary s;
  s.add_ms(msecs(2.5));
  EXPECT_NEAR(s.mean(), 2.5, 1e-9);
}

TEST(BucketHistogram, QuantileUpperBound) {
  BucketHistogram h(1.0, 10);
  // 5 samples in bucket 0, 5 in bucket 4.
  for (int i = 0; i < 5; ++i) h.add(0.5);
  for (int i = 0; i < 5; ++i) h.add(4.5);
  EXPECT_DOUBLE_EQ(h.quantile_upper_bound(0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile_upper_bound(0.9), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile_upper_bound(1.0), 5.0);
}

TEST(BucketHistogram, QuantileLowerBoundIsOneBucketBelowUpper) {
  BucketHistogram h(60.0, 241);
  for (int i = 0; i < 10; ++i) h.add(720.0);  // all in bucket [720, 780)
  EXPECT_DOUBLE_EQ(h.quantile_upper_bound(0.05), 780.0);
  EXPECT_DOUBLE_EQ(h.quantile_lower_bound(0.05), 720.0);
}

TEST(BucketHistogram, QuantileLowerBoundFlooredAtZero) {
  BucketHistogram h(1.0, 4);
  h.add(0.5);
  EXPECT_DOUBLE_EQ(h.quantile_lower_bound(0.5), 0.0);
}

TEST(BucketHistogram, OverflowClampsToLastBucket) {
  BucketHistogram h(1.0, 4);
  h.add(100.0);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_DOUBLE_EQ(h.quantile_lower_bound(1.0), 3.0);  // bucket [3, 4)
  EXPECT_DOUBLE_EQ(h.quantile_upper_bound(1.0), 4.0);
}

TEST(BucketHistogram, NegativeClampsToFirstBucket) {
  BucketHistogram h(1.0, 4);
  h.add(-5.0);
  EXPECT_DOUBLE_EQ(h.quantile_upper_bound(1.0), 1.0);  // bucket [0, 1)
}

TEST(BucketHistogram, EmptyQuantileIsZero) {
  BucketHistogram h(1.0, 4);
  EXPECT_DOUBLE_EQ(h.quantile_upper_bound(0.99), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile_lower_bound(0.99), 0.0);
}

TEST(BucketHistogram, ResetClears) {
  BucketHistogram h(1.0, 4);
  h.add(1.5);
  h.reset();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile_upper_bound(1.0), 0.0);
}

}  // namespace
}  // namespace ilu
