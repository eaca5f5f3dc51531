#include "keepalive/simulator.hpp"

#include <gtest/gtest.h>

#include "trace/function_profile.hpp"

namespace ilu {
namespace {

// KeepAliveReplay reads its function table by reference, so each test holds
// this table in a named vector for the replay's lifetime.
std::vector<FunctionProfile> two_functions() {
  return {
      lookbusy(secs(1), /*mem=*/100, /*init=*/secs(2)),   // fn 0
      lookbusy(secs(2), /*mem=*/300, /*init=*/secs(5)),   // fn 1
  };
}

TEST(KeepAliveReplay, FirstInvocationIsCold) {
  LruPolicy policy;
  const auto fns = two_functions();
  KeepAliveReplay replay(policy, 1000, fns);
  auto out = replay.on_invocation(0, secs(0));
  EXPECT_FALSE(out.warm);
  EXPECT_FALSE(out.dropped);
  EXPECT_EQ(out.exec, secs(3));  // warm 1 + init 2
  EXPECT_EQ(replay.pool().used_mb(), 100u);
  EXPECT_EQ(replay.pool().total_count(), 1u);
  EXPECT_EQ(replay.pool().idle_count(), 0u);  // busy until t=3
}

TEST(KeepAliveReplay, SecondInvocationAfterReleaseIsWarm) {
  LruPolicy policy;
  const auto fns = two_functions();
  KeepAliveReplay replay(policy, 1000, fns);
  replay.on_invocation(0, secs(0));       // cold, busy until t=3
  auto out = replay.on_invocation(0, secs(10));
  EXPECT_TRUE(out.warm);
  EXPECT_EQ(out.exec, secs(1));
  EXPECT_EQ(replay.stats().warm_starts, 1u);
  EXPECT_EQ(replay.stats().cold_starts, 1u);
}

TEST(KeepAliveReplay, ConcurrentInvocationsOfSameFunctionAreColdSpawnStart) {
  LruPolicy policy;
  const auto fns = two_functions();
  KeepAliveReplay replay(policy, 1000, fns);
  replay.on_invocation(0, secs(0));
  // Arrives while the only container is still busy (release at t=3).
  auto out = replay.on_invocation(0, secs(1));
  EXPECT_FALSE(out.warm);
  EXPECT_EQ(replay.pool().used_mb(), 200u);  // two containers
}

TEST(KeepAliveReplay, BusyContainersPinMemoryAndCauseDrops) {
  LruPolicy policy;
  const auto fns = two_functions();
  KeepAliveReplay replay(policy, 350, fns);
  replay.on_invocation(1, secs(0));  // 300 MB busy until t=7
  auto out = replay.on_invocation(1, secs(1));
  EXPECT_TRUE(out.dropped);  // no idle to evict, 300+300 > 350
  EXPECT_EQ(replay.stats().dropped, 1u);
}

TEST(KeepAliveReplay, EvictsIdleToMakeRoom) {
  LruPolicy policy;
  const auto fns = two_functions();
  KeepAliveReplay replay(policy, 350, fns);
  replay.on_invocation(0, secs(0));           // fn0 cold, idle at t=3
  auto out = replay.on_invocation(1, secs(5));  // needs 300, 100+300 > 350
  EXPECT_FALSE(out.dropped);
  EXPECT_EQ(replay.stats().evictions, 1u);
  EXPECT_EQ(replay.pool().used_mb(), 300u);
}

TEST(KeepAliveReplay, LruEvictsLeastRecentlyUsed) {
  LruPolicy policy;
  auto fns = std::vector<FunctionProfile>{
      lookbusy(msecs(100), 100, secs(1)),
      lookbusy(msecs(100), 100, secs(1)),
      lookbusy(msecs(100), 100, secs(1)),
  };
  KeepAliveReplay replay(policy, 200, fns);
  replay.on_invocation(0, secs(0));
  replay.on_invocation(1, secs(2));  // evicts nothing (100+100 = 200)
  // fn2 arrives: must evict fn0 (least recently used).
  replay.on_invocation(2, secs(4));
  // fn1 must still be warm, fn0 cold.
  EXPECT_TRUE(replay.on_invocation(1, secs(6)).warm);
  EXPECT_FALSE(replay.on_invocation(0, secs(8)).warm);
}

TEST(KeepAliveReplay, TtlExpiresIdleContainers) {
  TtlPolicy policy(mins(10));
  const auto fns = two_functions();
  KeepAliveReplay replay(policy, 1000, fns);
  replay.on_invocation(0, secs(0));
  // After 10 minutes + sweep slack the container must be gone.
  auto out = replay.on_invocation(0, mins(15));
  EXPECT_FALSE(out.warm);
  EXPECT_GE(replay.stats().expirations, 1u);
}

TEST(KeepAliveReplay, TtlKeepsWithinWindow) {
  TtlPolicy policy(mins(10));
  const auto fns = two_functions();
  KeepAliveReplay replay(policy, 1000, fns);
  replay.on_invocation(0, secs(0));
  auto out = replay.on_invocation(0, mins(9));
  EXPECT_TRUE(out.warm);
}

TEST(KeepAliveReplay, WorkConservingLruKeepsBeyondTtlWindow) {
  LruPolicy policy;
  const auto fns = two_functions();
  KeepAliveReplay replay(policy, 1000, fns);
  replay.on_invocation(0, secs(0));
  auto out = replay.on_invocation(0, mins(60));
  EXPECT_TRUE(out.warm) << "LRU is work-conserving: no TTL expiry";
}

TEST(KeepAliveReplay, StatsAccounting) {
  LruPolicy policy;
  const auto fns = two_functions();
  KeepAliveReplay replay(policy, 1000, fns);
  replay.on_invocation(0, secs(0));    // cold: base 1 s, init 2 s
  replay.on_invocation(0, secs(10));   // warm: base 1 s
  replay.on_invocation(0, secs(20));   // warm
  const auto s = replay.stats();
  EXPECT_EQ(s.invocations, 3u);
  EXPECT_EQ(s.total_base_exec, secs(3));
  EXPECT_EQ(s.total_init_paid, secs(2));
  EXPECT_NEAR(s.cold_fraction(), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(s.exec_increase_pct(), 100.0 * 2.0 / 3.0, 1e-6);
}

TEST(KeepAliveReplay, ShrinkCapacityEvictsIdle) {
  LruPolicy policy;
  const auto fns = two_functions();
  KeepAliveReplay replay(policy, 1000, fns);
  replay.on_invocation(0, secs(0));
  replay.on_invocation(1, secs(1));
  replay.advance_to(secs(30));  // both idle; used = 400
  EXPECT_EQ(replay.pool().used_mb(), 400u);
  replay.pool().set_capacity_mb(150);
  EXPECT_LE(replay.pool().used_mb(), 150u);
  EXPECT_EQ(replay.pool().capacity_mb(), 150u);
}

TEST(KeepAliveReplay, GrowCapacityAllowsMoreContainers) {
  LruPolicy policy;
  const auto fns = two_functions();
  KeepAliveReplay replay(policy, 100, fns);
  EXPECT_TRUE(replay.on_invocation(1, secs(0)).dropped);  // 300 > 100
  replay.pool().set_capacity_mb(500);
  EXPECT_FALSE(replay.on_invocation(1, secs(1)).dropped);
}

TEST(KeepAliveReplay, GreedyDualKeepsExpensiveInitFunctions) {
  GreedyDualPolicy policy;
  // fn0: cheap init, fn1: expensive init; same memory.
  std::vector<FunctionProfile> fns = {
      lookbusy(msecs(100), 100, msecs(100)),
      lookbusy(msecs(100), 100, secs(10)),
  };
  KeepAliveReplay replay(policy, 200, fns);
  replay.on_invocation(0, secs(0));
  replay.on_invocation(1, secs(20));
  replay.advance_to(secs(60));
  // Third function (reuse fn0's profile shape) forces one eviction:
  // extend function table? Instead re-invoke fn0 and fn1 to bump, then add
  // memory pressure by shrinking.
  replay.pool().set_capacity_mb(100);
  // GD must have evicted fn0 (low cost/size), keeping fn1 warm.
  EXPECT_TRUE(replay.on_invocation(1, secs(70)).warm);
}

TEST(KeepAliveReplay, HistPrewarmBringsContainerBack) {
  HistPolicy policy;
  std::vector<FunctionProfile> fns = {lookbusy(secs(1), 100, secs(5))};
  KeepAliveReplay replay(policy, 1000, fns);
  // Regular 10-minute cadence: policy becomes predictable, eagerly evicts
  // after ~1 min linger and prewarms before the next predicted arrival.
  for (int i = 0; i < 8; ++i) {
    auto out = replay.on_invocation(0, mins(10.0 * i));
    if (i >= 5) {
      EXPECT_TRUE(out.warm) << "iteration " << i
                            << " should hit a prewarmed container";
    }
  }
  EXPECT_GT(replay.stats().prewarm_creates, 0u);
}

TEST(KeepAliveReplay, AdvanceToIsMonotonic) {
  LruPolicy policy;
  const auto fns = two_functions();
  KeepAliveReplay replay(policy, 1000, fns);
  replay.advance_to(secs(5));
  replay.advance_to(secs(5));  // same time ok
  replay.advance_to(secs(6));
  SUCCEED();
}

TEST(KeepAliveReplay, ManyInvocationsStress) {
  GreedyDualPolicy policy;
  std::vector<FunctionProfile> fns;
  for (int i = 0; i < 20; ++i) {
    fns.push_back(lookbusy(msecs(50 + i * 10), 50 + i * 13, msecs(200 + i * 37)));
  }
  KeepAliveReplay replay(policy, 600, fns);
  for (int k = 0; k < 20000; ++k) {
    replay.on_invocation(static_cast<FunctionId>((k * 7) % 20),
                        msecs(k * 25.0));
  }
  const auto s = replay.stats();
  EXPECT_EQ(s.invocations, 20000u);
  EXPECT_EQ(s.warm_starts + s.cold_starts + s.dropped, 20000u);
  EXPECT_LE(replay.pool().used_mb(), 600u);
}

}  // namespace
}  // namespace ilu
