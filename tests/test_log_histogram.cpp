// Log-bucketed histograms (obs/metrics): bounded relative error across the
// µs→s range, deterministic shard-count-independent merge, exact overflow
// tracking and exact whole-µs sums.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace ilu {
namespace {

double exact_percentile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  std::size_t idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  if (idx == 0) idx = 1;
  return xs[std::min(idx, xs.size()) - 1];
}

TEST(LogHistogram, EmptyIsZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h.observed_max(), 0.0);
}

TEST(LogHistogram, ResetReturnsToEmptyAndObservesAgain) {
  // The live-load harness reuses one stats block across sweep stages via
  // reset() between quiesced runs; a stale bucket or max would corrupt
  // every stage after the first.
  LogHistogram h;
  h.observe(0.5);
  h.observe(42.0);
  h.observe(4.0e5);  // overflow bucket too
  ASSERT_EQ(h.count(), 3u);
  ASSERT_DOUBLE_EQ(h.percentile(1.0), 4.0e5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.observed_max(), 0.0);
  // Fresh observations after reset behave exactly like a new histogram.
  h.observe(3.7);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 3.7);
  EXPECT_DOUBLE_EQ(h.observed_max(), 3.7);
}

TEST(LogHistogram, GeometryCoversConfiguredRange) {
  LogHistogram h;  // [1e-3, 1e5) ms, 32 subbuckets/octave
  EXPECT_EQ(h.subbuckets(), 32u);
  // log2(1e8) ≈ 26.6 → 27 octaves × 32 subbuckets.
  EXPECT_EQ(h.num_buckets(), 27u * 32u);
  EXPECT_GT(h.bucket_upper(h.num_buckets() - 1), 1e5 / 2);
}

/// The structural guarantee: any quantile upper bound is within one
/// subbucket (relative error ≤ 1/32) of the exact value, across five decades.
TEST(LogHistogram, BoundedRelativeErrorAcrossDecades) {
  LogHistogram h;
  std::vector<double> xs;
  Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over [10 µs, 10 s] in ms units.
    double x = std::pow(10.0, rng.uniform(-2.0, 4.0));
    xs.push_back(x);
    h.observe(x);
  }
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    double exact = exact_percentile(xs, q);
    double approx = h.percentile(q);
    EXPECT_GE(approx, exact * (1.0 - 1e-9)) << "q=" << q;
    EXPECT_LE(approx, exact * (1.0 + 2.0 / 32.0)) << "q=" << q;
  }
  EXPECT_NEAR(h.observed_max(), *std::max_element(xs.begin(), xs.end()),
              1e-5);
}

TEST(LogHistogram, WholeMicrosecondsReadBackExactly) {
  // 1001 µs in ms units is 1.0009999999999999 as a double; micro-units
  // must round to nearest, not truncate to 1000999.
  LogHistogram h;
  h.observe(to_ms(usecs(1001)));
  EXPECT_DOUBLE_EQ(h.sum(), 1.001);
  EXPECT_DOUBLE_EQ(h.mean(), 1.001);
  EXPECT_DOUBLE_EQ(h.observed_max(), 1.001);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1.001);

  LogHistogram all;
  std::int64_t sum_us = 0;
  for (std::int64_t us = 1; us <= 2000; ++us) {
    all.observe(to_ms(usecs(us)));
    sum_us += us;
  }
  EXPECT_DOUBLE_EQ(all.sum(), static_cast<double>(sum_us) / 1000.0);
}

TEST(LogHistogram, SingleValueIsExactViaObservedMax) {
  LogHistogram h;
  h.observe(3.7);
  // The percentile walk clamps to the exact observed max, so a single value
  // comes back exactly, not at a bucket edge.
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 3.7);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 3.7);
}

TEST(LogHistogram, UnderflowClampsToFirstBucket) {
  LogHistogram h;  // min 1e-3
  h.observe(1e-7);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.bucket(0), 1u);
}

TEST(LogHistogram, OverflowIsTrackedExactly) {
  LogHistogram h;  // max 1e5
  h.observe(1.0);
  h.observe(2.5e5);
  h.observe(4.0e5);
  EXPECT_EQ(h.count(), 3u);
  // Only the in-range value is bucketed; the two overflows are counted
  // outside the bucket array.
  std::uint64_t bucketed = 0;
  for (std::size_t i = 0; i < h.num_buckets(); ++i) bucketed += h.bucket(i);
  EXPECT_EQ(bucketed, 1u);
  // Tail quantiles land in the overflow region → the exact max, not a
  // bucket edge and not the range cap.
  EXPECT_DOUBLE_EQ(h.percentile(0.999), 4.0e5);
  EXPECT_DOUBLE_EQ(h.observed_max(), 4.0e5);
  // A quantile whose rank lands on the in-range value (rank ceil(0.3*3)=1)
  // is still served from the buckets.
  EXPECT_LE(h.percentile(0.3), 1.0 * (1.0 + 2.0 / 32.0));
}

/// Determinism contract: one stream split round-robin across k per-shard
/// histograms and merged must be bit-identical to the k=1 result, for any k
/// and any merge order.
TEST(LogHistogram, MergeIsShardCountInvariant) {
  std::vector<double> xs;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    xs.push_back(std::pow(10.0, rng.uniform(-2.5, 4.5)));  // incl. overflow
  }
  LogHistogram reference;
  for (double x : xs) reference.observe(x);

  for (std::size_t k = 1; k <= 5; ++k) {
    std::vector<std::unique_ptr<LogHistogram>> shards;
    for (std::size_t s = 0; s < k; ++s) {
      shards.push_back(std::make_unique<LogHistogram>());
    }
    for (std::size_t i = 0; i < xs.size(); ++i) {
      shards[i % k]->observe(xs[i]);
    }
    LogHistogram merged;
    // Reverse order: the merge must be commutative.
    for (std::size_t s = k; s-- > 0;) {
      ASSERT_TRUE(merged.same_geometry(*shards[s]));
      merged.merge(*shards[s]);
    }
    EXPECT_EQ(merged.count(), reference.count()) << "k=" << k;
    EXPECT_DOUBLE_EQ(merged.sum(), reference.sum()) << "k=" << k;
    EXPECT_DOUBLE_EQ(merged.observed_max(), reference.observed_max());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      EXPECT_DOUBLE_EQ(merged.percentile(q), reference.percentile(q))
          << "k=" << k << " q=" << q;
    }
    for (std::size_t b = 0; b < merged.num_buckets(); ++b) {
      ASSERT_EQ(merged.bucket(b), reference.bucket(b)) << "bucket " << b;
    }
  }
}

}  // namespace
}  // namespace ilu
