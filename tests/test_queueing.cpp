#include <gtest/gtest.h>

#include "queueing/invocation_queue.hpp"
#include "queueing/queue_policy.hpp"
#include "queueing/regulator.hpp"

namespace ilu {
namespace {

QueueItem item(FunctionId fn, TimePoint arrival) {
  QueueItem i;
  i.fn = fn;
  i.arrival = arrival;
  return i;
}

class QueueingTest : public ::testing::Test {
 protected:
  void seed_chars() {
    // fn0: short warm (50 ms); fn1: long warm (5 s); fn2: unseen.
    chars_.on_arrival(0, secs(0));
    chars_.record_warm(0, msecs(50));
    chars_.record_cold(0, msecs(500));
    chars_.on_arrival(1, secs(0));
    chars_.record_warm(1, secs(5));
    chars_.record_cold(1, secs(8));
    // IATs: fn0 frequent, fn1 rare.
    chars_.on_arrival(0, secs(1));
    chars_.on_arrival(0, secs(2));
    chars_.on_arrival(1, secs(600));
  }
  CharacteristicsMap chars_;
};

TEST_F(QueueingTest, MakeQueuePolicyNames) {
  for (const char* n : {"FCFS", "SJF", "EEDF", "RARE"}) {
    EXPECT_EQ(make_queue_policy(n)->name(), n);
  }
  EXPECT_THROW(make_queue_policy("LIFO"), std::invalid_argument);
}

TEST_F(QueueingTest, FcfsOrdersByArrival) {
  FcfsQueuePolicy p;
  EXPECT_LT(p.priority(item(1, secs(1)), chars_, true),
            p.priority(item(0, secs(2)), chars_, true));
}

TEST_F(QueueingTest, SjfPrefersShortFunctions) {
  seed_chars();
  SjfQueuePolicy p;
  EXPECT_LT(p.priority(item(0, secs(0)), chars_, true),
            p.priority(item(1, secs(0)), chars_, true));
}

TEST_F(QueueingTest, SjfUsesColdTimeWithoutWarmContainer) {
  seed_chars();
  SjfQueuePolicy p;
  double warm_est = p.priority(item(0, secs(0)), chars_, true);
  double cold_est = p.priority(item(0, secs(0)), chars_, false);
  EXPECT_NEAR(warm_est, 50.0, 1e-6);
  EXPECT_NEAR(cold_est, 500.0, 1e-6);
}

TEST_F(QueueingTest, UnseenFunctionHasZeroPriorityInSjf) {
  seed_chars();
  SjfQueuePolicy p;
  EXPECT_DOUBLE_EQ(p.priority(item(2, secs(100)), chars_, true), 0.0);
}

TEST_F(QueueingTest, EedfBalancesArrivalAndSize) {
  seed_chars();
  EedfQueuePolicy p;
  // Long job that arrived much earlier beats a short job that just came.
  double early_long = p.priority(item(1, secs(0)), chars_, true);   // 0+5000
  double late_short = p.priority(item(0, secs(10)), chars_, true);  // 10000+50
  EXPECT_LT(early_long, late_short);
}

TEST_F(QueueingTest, RarePrioritizesHighIat) {
  seed_chars();
  RareQueuePolicy p;
  EXPECT_LT(p.priority(item(1, secs(0)), chars_, true),
            p.priority(item(0, secs(0)), chars_, true));
}

TEST_F(QueueingTest, InvocationQueuePopsLowestPriority) {
  seed_chars();
  SjfQueuePolicy policy;
  InvocationQueue q(policy, chars_);
  q.push(item(1, secs(0)), true);  // 5000 ms
  q.push(item(0, secs(0)), true);  // 50 ms
  auto first = q.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->fn, 0u);
  EXPECT_EQ(q.pop()->fn, 1u);
  EXPECT_FALSE(q.pop().has_value());
}

TEST_F(QueueingTest, FifoTieBreakPreservesArrivalOrder) {
  FcfsQueuePolicy policy;
  InvocationQueue q(policy, chars_);
  // All same arrival time -> same priority; FIFO by sequence.
  for (FunctionId f = 0; f < 5; ++f) q.push(item(f, secs(1)), true);
  for (FunctionId f = 0; f < 5; ++f) {
    EXPECT_EQ(q.pop()->fn, f);
  }
}

TEST_F(QueueingTest, QueueSizeTracking) {
  FcfsQueuePolicy policy;
  InvocationQueue q(policy, chars_);
  EXPECT_TRUE(q.empty());
  q.push(item(0, secs(0)), true);
  q.push(item(1, secs(1)), true);
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_EQ(q.size(), 1u);
}

TEST(Regulator, FixedLimitEnforced) {
  ConcurrencyRegulator reg(RegulatorConfig{.limit = 4.0});
  EXPECT_TRUE(reg.can_dispatch(3));
  EXPECT_FALSE(reg.can_dispatch(4));
  reg.tick(10.0);  // fixed mode: tick is a no-op
  EXPECT_DOUBLE_EQ(reg.limit(), 4.0);
}

TEST(Regulator, AimdAdditiveIncreaseWhileUncongested) {
  RegulatorConfig cfg{.limit = 10.0, .dynamic = true};
  ConcurrencyRegulator reg(cfg);
  for (int i = 0; i < 5; ++i) reg.tick(0.5);
  EXPECT_DOUBLE_EQ(reg.limit(), 15.0);
}

TEST(Regulator, AimdMultiplicativeDecreaseOnCongestion) {
  RegulatorConfig cfg{.limit = 100.0, .dynamic = true};
  ConcurrencyRegulator reg(cfg);
  reg.tick(1.5);
  EXPECT_DOUBLE_EQ(reg.limit(), 70.0);
}

TEST(Regulator, AimdRespectsBounds) {
  RegulatorConfig cfg{.limit = 4.0,
                      .dynamic = true,
                      .min_limit = 2.0,
                      .max_limit = 6.0};
  ConcurrencyRegulator reg(cfg);
  for (int i = 0; i < 50; ++i) reg.tick(0.0);
  EXPECT_DOUBLE_EQ(reg.limit(), 6.0);
  for (int i = 0; i < 50; ++i) reg.tick(5.0);
  EXPECT_DOUBLE_EQ(reg.limit(), 2.0);
}

TEST(Regulator, AimdSawtoothConvergesAroundCongestionPoint) {
  // Feed load proportional to the limit: load = limit/50. Congestion at
  // 1.0 -> equilibrium limit ~50.
  RegulatorConfig cfg{.limit = 10.0,
                      .dynamic = true,
                      .max_limit = 500.0};
  ConcurrencyRegulator reg(cfg);
  for (int i = 0; i < 500; ++i) reg.tick(reg.limit() / 50.0);
  EXPECT_GT(reg.limit(), 30.0);
  EXPECT_LT(reg.limit(), 75.0);
}

}  // namespace
}  // namespace ilu
