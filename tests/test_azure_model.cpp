#include "trace/azure.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

namespace ilu {
namespace {

AzureModelConfig small_config() {
  AzureModelConfig cfg;
  cfg.population = 2000;
  cfg.days = 0.25;  // 6 hours keeps tests quick
  cfg.seed = 99;
  return cfg;
}

class AzureModelTest : public ::testing::Test {
 protected:
  AzureTraceModel model_{small_config()};
};

TEST_F(AzureModelTest, PopulationHasConfiguredSize) {
  EXPECT_EQ(model_.population().size(), 2000u);
}

TEST_F(AzureModelTest, PopulationIsDeterministic) {
  AzureTraceModel again{small_config()};
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(model_.population()[i].mean_iat_s,
                     again.population()[i].mean_iat_s);
  }
}

TEST_F(AzureModelTest, HeavyTailedPopularity) {
  // Top 1% of functions should carry a large majority of expected
  // invocations (the Azure trace's headline skew).
  std::vector<double> inv;
  for (const auto& m : model_.population()) inv.push_back(m.expected_invocations);
  std::sort(inv.begin(), inv.end());
  double total = std::accumulate(inv.begin(), inv.end(), 0.0);
  double top1 = std::accumulate(inv.end() - 20, inv.end(), 0.0);
  EXPECT_GT(top1 / total, 0.5);
}

TEST_F(AzureModelTest, MajorityOfFunctionsAreRarelyInvoked) {
  // Over half of functions should have IAT > 30 min (always-cold under TTL).
  std::size_t rare = 0;
  for (const auto& m : model_.population()) {
    if (m.mean_iat_s > 1800.0) ++rare;
  }
  EXPECT_GT(rare, model_.population().size() / 2);
}

TEST_F(AzureModelTest, MemoryWithinBounds) {
  const auto& cfg = model_.config();
  for (const auto& m : model_.population()) {
    EXPECT_GE(m.mem_mb, cfg.min_fn_mem_mb);
    EXPECT_LE(m.mem_mb, cfg.max_fn_mem_mb);
  }
}

TEST_F(AzureModelTest, DurationsWithinBounds) {
  const auto& cfg = model_.config();
  for (const auto& m : model_.population()) {
    EXPECT_GE(m.warm_s, cfg.min_dur_s);
    EXPECT_LE(m.warm_s, cfg.max_dur_s);
    EXPECT_GE(m.init_s, cfg.min_init_s);
    EXPECT_LE(m.init_s, cfg.max_init_s);
  }
}

TEST_F(AzureModelTest, RareSamplerPicksLeastPopular) {
  auto rare = model_.sample_rare(50);
  EXPECT_EQ(rare.functions.size(), 50u);
  // Every rare function's per-trace rate should be below the population
  // median rate.
  std::vector<double> all_iat;
  for (const auto& m : model_.population()) all_iat.push_back(m.mean_iat_s);
  std::nth_element(all_iat.begin(), all_iat.begin() + all_iat.size() / 2,
                   all_iat.end());
  double median_iat = all_iat[all_iat.size() / 2];
  auto stats = rare.stats();
  // Rare sample should have lower request rate than a random one.
  auto rnd = model_.sample_random(50);
  EXPECT_LT(stats.reqs_per_sec, rnd.stats().reqs_per_sec);
  (void)median_iat;
}

TEST_F(AzureModelTest, RepresentativeSamplerSpansQuartiles) {
  auto rep = model_.sample_representative(40);
  EXPECT_EQ(rep.functions.size(), 40u);
  // Should contain both very frequent and very infrequent functions: count
  // per-function event totals.
  std::vector<std::size_t> counts(rep.functions.size(), 0);
  for (const auto& e : rep.events) ++counts[e.fn];
  auto [mn, mx] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_LT(*mn * 10, *mx + 10);  // large spread
}

TEST_F(AzureModelTest, TracesAreValidAndSorted) {
  for (auto t : {model_.sample_rare(30), model_.sample_representative(30),
                 model_.sample_random(30)}) {
    EXPECT_TRUE(t.valid());
    EXPECT_EQ(t.duration, secs(0.25 * 86400));
  }
}

TEST_F(AzureModelTest, TargetRpsScalingLandsNearTarget) {
  auto t = model_.sample_representative(60, /*target_rps=*/20.0);
  auto s = t.stats();
  EXPECT_GT(s.reqs_per_sec, 10.0);
  EXPECT_LT(s.reqs_per_sec, 40.0);
}

TEST_F(AzureModelTest, MinuteBucketReplayRule) {
  // Events within one minute must be equally spaced: check spacing
  // divisibility for a busy function.
  auto t = model_.sample_random(20, /*target_rps=*/10.0);
  ASSERT_FALSE(t.events.empty());
  // All events of the same (fn, minute) bucket are equally spaced; verify
  // for the first busy minute we find with >= 3 events of one function.
  for (std::size_t i = 0; i + 2 < t.events.size(); ++i) {
    const auto& a = t.events[i];
    std::vector<TimePoint> same;
    auto minute = a.at.count() / 60'000'000;
    for (std::size_t j = i; j < t.events.size(); ++j) {
      const auto& b = t.events[j];
      if (b.at.count() / 60'000'000 != minute) break;
      if (b.fn == a.fn) same.push_back(b.at);
    }
    if (same.size() >= 3) {
      auto gap1 = same[1] - same[0];
      auto gap2 = same[2] - same[1];
      EXPECT_NEAR(static_cast<double>(gap1.count()),
                  static_cast<double>(gap2.count()), 2.0);
      return;
    }
  }
  GTEST_SKIP() << "no busy minute found in sample";
}

TEST_F(AzureModelTest, DiurnalMeanIsOne) {
  double sum = 0.0;
  for (int m = 0; m < 1440; ++m) sum += model_.diurnal(m);
  EXPECT_NEAR(sum / 1440.0, 1.0, 1e-6);
}

TEST_F(AzureModelTest, DiurnalPeaksMidday) {
  EXPECT_GT(model_.diurnal(720), model_.diurnal(60));
}

TEST_F(AzureModelTest, FullTraceTimeseriesHasDiurnalShape) {
  auto rps = model_.full_trace_rps_by_minute();
  ASSERT_EQ(rps.size(), 360u);  // 0.25 days
  double total = std::accumulate(rps.begin(), rps.end(), 0.0);
  EXPECT_GT(total, 0.0);
}

TEST(AzureModelFullDay, DiurnalVisibleInFullTrace) {
  AzureModelConfig cfg;
  cfg.population = 3000;
  cfg.days = 1.0;
  AzureTraceModel model(cfg);
  auto rps = model.full_trace_rps_by_minute();
  ASSERT_EQ(rps.size(), 1440u);
  // Average around midday should exceed the nightly trough.
  double noon = 0.0, night = 0.0;
  for (int m = 660; m < 780; ++m) noon += rps[m];
  for (int m = 0; m < 120; ++m) night += rps[m];
  EXPECT_GT(noon, night);
}

TEST(AzureModelEdge, SampleMoreThanPopulationClamps) {
  AzureModelConfig cfg;
  cfg.population = 10;
  cfg.days = 0.05;
  AzureTraceModel model(cfg);
  auto t = model.sample_random(100);
  EXPECT_EQ(t.functions.size(), 10u);
}

}  // namespace
}  // namespace ilu
