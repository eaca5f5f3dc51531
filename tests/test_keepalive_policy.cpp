#include "keepalive/policy.hpp"

#include <gtest/gtest.h>

#include <type_traits>

namespace ilu {
namespace {

CacheEntry entry(FunctionId fn, std::uint32_t mem, Duration init,
                 TimePoint last_used, std::uint64_t uses = 1) {
  CacheEntry e;
  e.fn = fn;
  e.mem_mb = mem;
  e.init_time = init;
  e.last_used = last_used;
  e.uses = uses;
  return e;
}

TEST(MakePolicy, AllNamesConstruct) {
  for (const char* n : {"TTL", "LRU", "FREQ", "GD", "LND", "HIST"}) {
    auto p = make_policy(n);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->name(), n);
  }
}

TEST(MakePolicy, UnknownThrows) {
  EXPECT_THROW(make_policy("BELADY"), std::invalid_argument);
}

TEST(TtlPolicy, ExpiresTenMinutesAfterLastUse) {
  TtlPolicy p;
  auto e = entry(0, 128, secs(1), secs(100));
  auto exp = p.expires_at(e);
  ASSERT_TRUE(exp.has_value());
  EXPECT_EQ(*exp, secs(100) + mins(10));
}

TEST(TtlPolicy, EvictionOrderIsLru) {
  TtlPolicy p;
  auto older = entry(0, 128, secs(1), secs(10));
  auto newer = entry(1, 128, secs(1), secs(20));
  EXPECT_LT(p.eviction_rank(older), p.eviction_rank(newer));
}

TEST(LruPolicy, NoExpiry) {
  // Expiry is a capability by type: LRU has no expires_at to call.
  static_assert(!std::is_base_of_v<ExpiringPolicy, LruPolicy>);
  static_assert(std::is_base_of_v<ExpiringPolicy, TtlPolicy>);
  static_assert(std::is_base_of_v<ExpiringPolicy, HistPolicy>);
  for (const char* n : {"LRU", "FREQ", "GD", "LND"}) {
    EXPECT_EQ(dynamic_cast<ExpiringPolicy*>(make_policy(n).get()), nullptr)
        << n;
  }
}

TEST(LfuPolicy, RanksByFrequency) {
  LfuPolicy p;
  auto rare = entry(0, 128, secs(1), secs(100), /*uses=*/2);
  auto popular = entry(1, 128, secs(1), secs(10), /*uses=*/50);
  EXPECT_LT(p.eviction_rank(rare), p.eviction_rank(popular));
}

TEST(GreedyDual, PriorityIsFreqCostOverSizePlusL) {
  GreedyDualPolicy p;
  auto e = entry(0, 100, msecs(500), secs(1), /*uses=*/2);
  p.on_access(e, secs(1));
  // L=0, freq=2, cost=500 ms, size=100 MB -> 2*500/100 = 10.
  EXPECT_DOUBLE_EQ(e.priority, 10.0);
}

TEST(GreedyDual, AgingRaisesL) {
  GreedyDualPolicy p;
  auto e = entry(0, 100, msecs(500), secs(1), 1);
  p.on_access(e, secs(1));
  EXPECT_DOUBLE_EQ(e.priority, 5.0);
  p.on_evict(e);
  EXPECT_DOUBLE_EQ(p.aging_factor(), 5.0);
  auto e2 = entry(1, 100, msecs(500), secs(2), 1);
  p.on_access(e2, secs(2));
  EXPECT_DOUBLE_EQ(e2.priority, 10.0);  // L + 5
}

TEST(GreedyDual, LNeverDecreases) {
  GreedyDualPolicy p;
  auto big = entry(0, 10, secs(10), secs(1), 5);
  p.on_access(big, secs(1));
  p.on_evict(big);
  double l1 = p.aging_factor();
  auto small = entry(1, 1000, msecs(1), secs(2), 1);
  p.on_access(small, secs(2));
  // small's priority is l1 + epsilon, so evicting it nudges L up but can
  // never pull it down.
  p.on_evict(small);
  EXPECT_GE(p.aging_factor(), l1);
  EXPECT_DOUBLE_EQ(p.aging_factor(), small.priority);
}

TEST(GreedyDual, PrefersKeepingHighInitSmallMemory) {
  GreedyDualPolicy p;
  auto cheap = entry(0, 512, msecs(100), secs(1), 1);
  auto precious = entry(1, 64, secs(5), secs(1), 1);
  p.on_access(cheap, secs(1));
  p.on_access(precious, secs(1));
  EXPECT_LT(p.eviction_rank(cheap), p.eviction_rank(precious));
}

TEST(Landlord, CreditIgnoresFrequency) {
  LandlordPolicy p;
  auto once = entry(0, 100, msecs(500), secs(1), 1);
  auto often = entry(1, 100, msecs(500), secs(1), 100);
  p.on_access(once, secs(1));
  p.on_access(often, secs(1));
  EXPECT_DOUBLE_EQ(p.eviction_rank(once), p.eviction_rank(often));
}

class HistPolicyTest : public ::testing::Test {
 protected:
  HistPolicy p_;
};

TEST_F(HistPolicyTest, UnknownFunctionGetsGenericTtl) {
  auto e = entry(42, 128, secs(1), mins(5));
  auto exp = p_.expires_at(e);
  ASSERT_TRUE(exp.has_value());
  EXPECT_EQ(*exp, mins(5) + mins(120));
}

TEST_F(HistPolicyTest, RegularArrivalsBecomePredictable) {
  // Invocations every 5 minutes: CoV ~ 0 -> predictable.
  for (int i = 0; i <= 6; ++i) p_.on_invocation(7, mins(5.0 * i));
  EXPECT_TRUE(p_.predictable(7));
  EXPECT_LE(p_.cov(7), 2.0);
}

TEST_F(HistPolicyTest, PredictableFunctionKeepAliveTracksTail) {
  for (int i = 0; i <= 6; ++i) p_.on_invocation(7, mins(5.0 * i));
  auto e = entry(7, 128, secs(1), mins(30));
  auto exp = p_.expires_at(e);
  ASSERT_TRUE(exp.has_value());
  // Either eagerly evicted after the linger (prewarm scheduled) or kept
  // through the tail window; for a 5-min IAT with 1-min buckets the tail is
  // ~5-6 min, which exceeds 2x linger -> eager eviction after 1 min.
  EXPECT_EQ(*exp, mins(30) + mins(1));
}

TEST_F(HistPolicyTest, PrewarmPredictedBeforeNextArrival) {
  for (int i = 0; i <= 6; ++i) p_.on_invocation(7, mins(5.0 * i));
  // Last invocation at t=30 min; next predicted ~35 min. The prewarm must
  // land strictly BEFORE the predicted arrival (head bucket lower edge
  // minus the linger margin), or it loses the race to the invocation.
  auto at = p_.prewarm_at(7, mins(31));
  ASSERT_TRUE(at.has_value());
  EXPECT_GT(*at, mins(31));
  EXPECT_LT(*at, mins(35));
}

TEST_F(HistPolicyTest, PrewarmNeverScheduledInThePast) {
  for (int i = 0; i <= 6; ++i) p_.on_invocation(7, mins(5.0 * i));
  // Asking long after the predicted arrival: clamped to "now".
  auto at = p_.prewarm_at(7, mins(50));
  ASSERT_TRUE(at.has_value());
  EXPECT_EQ(*at, mins(50));
}

TEST_F(HistPolicyTest, UnpredictableGetsNoPrewarm) {
  // Heavy-tailed IATs (many 1 s gaps, one 50000 s gap): CoV > 3.
  TimePoint t{};
  p_.on_invocation(9, t);
  for (int i = 0; i < 9; ++i) {
    t += secs(1);
    p_.on_invocation(9, t);
  }
  t += secs(50000);
  p_.on_invocation(9, t);
  EXPECT_GT(p_.cov(9), 2.0);
  EXPECT_FALSE(p_.predictable(9));
  EXPECT_FALSE(p_.prewarm_at(9, t + secs(1)).has_value());
}

TEST_F(HistPolicyTest, EvictionRankPrefersEvictingFarthestNextUse) {
  // fn 1 arrives every minute, fn 2 every 60 minutes.
  for (int i = 0; i <= 10; ++i) p_.on_invocation(1, mins(i));
  for (int i = 0; i <= 10; ++i) p_.on_invocation(2, mins(60.0 * i));
  auto soon = entry(1, 128, secs(1), mins(600));
  auto far = entry(2, 128, secs(1), mins(600));
  EXPECT_LT(p_.eviction_rank(far), p_.eviction_rank(soon));
}

TEST_F(HistPolicyTest, FewSamplesStayUnpredictable) {
  p_.on_invocation(3, mins(0));
  p_.on_invocation(3, mins(5));
  EXPECT_FALSE(p_.predictable(3));  // only 1 IAT observed
}

}  // namespace
}  // namespace ilu
