#include "keepalive/pool.hpp"

#include <gtest/gtest.h>

#include "runtime/sim_runtime.hpp"
#include "trace/function_profile.hpp"

namespace ilu {
namespace {

class ContainerPoolTest : public ::testing::Test {
 protected:
  ContainerPoolTest()
      : pool_(rt_, policy_,
              ContainerPool::Config{.capacity_mb = 1000,
                                    .free_buffer_mb = 0,
                                    .sweep_interval = msecs(500)},
              [this](const Container& c) { evicted_.push_back(c.fn); }) {}

  ContainerHandle make_running(FunctionId fn, std::uint32_t mem) {
    auto profile = lookbusy(secs(1), mem, secs(1));
    ContainerHandle h = pool_.add_container(fn, profile, rt_.now());
    if (h.valid()) pool_.launch(h, rt_.now());
    return h;
  }

  SimRuntime rt_;
  LruPolicy policy_;
  std::vector<FunctionId> evicted_;
  ContainerPool pool_;
};

TEST_F(ContainerPoolTest, AddReservesMemory) {
  ContainerHandle c = make_running(0, 300);
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(pool_.used_mb(), 300u);
  EXPECT_EQ(pool_.total_count(), 1u);
  EXPECT_EQ(pool_.idle_count(), 0u);
}

TEST_F(ContainerPoolTest, AcquireReturnsNullWhenNoIdle) {
  make_running(0, 300);
  EXPECT_FALSE(pool_.acquire(0, rt_.now()).valid());
}

TEST_F(ContainerPoolTest, ReturnThenAcquireReusesContainer) {
  ContainerHandle c = make_running(0, 300);
  pool_.return_container(c, secs(1));
  EXPECT_TRUE(pool_.has_idle(0));
  ContainerHandle got = pool_.acquire(0, secs(2));
  EXPECT_EQ(got, c);
  EXPECT_EQ(pool_.get(got).state, ContainerState::Running);
  EXPECT_EQ(pool_.get(got).entry.uses, 2u);
}

TEST_F(ContainerPoolTest, AcquirePicksMostRecentlyUsed) {
  ContainerHandle a = make_running(0, 100);
  ContainerHandle b = make_running(0, 100);
  pool_.return_container(a, secs(1));
  pool_.return_container(b, secs(2));
  EXPECT_EQ(pool_.acquire(0, secs(3)), b);
}

TEST_F(ContainerPoolTest, MemoryPressureEvictsIdleLru) {
  ContainerHandle a = make_running(0, 400);
  ContainerHandle b = make_running(1, 400);
  pool_.return_container(a, secs(1));
  pool_.return_container(b, secs(2));
  // 800 used; adding 300 must evict fn0 (older).
  ContainerHandle c = make_running(2, 300);
  ASSERT_TRUE(c.valid());
  ASSERT_EQ(evicted_.size(), 1u);
  EXPECT_EQ(evicted_[0], 0u);
  EXPECT_EQ(pool_.evictions(), 1u);
  // The evicted container's handle is now stale.
  EXPECT_FALSE(pool_.store().contains(a));
  EXPECT_TRUE(pool_.store().contains(b));
}

TEST_F(ContainerPoolTest, EqualRanksEvictTheLongestIdleFirst) {
  // LRU ranks by last use, so both containers tie at t=1. b went idle
  // first but holds the higher slot index; slot order must not decide.
  ContainerHandle a = make_running(0, 400);
  ContainerHandle b = make_running(1, 400);
  ASSERT_GT(b.index, a.index);
  pool_.return_container(b, secs(1));
  pool_.return_container(a, secs(1));
  pool_.set_capacity_mb(500);
  EXPECT_EQ(evicted_, std::vector<FunctionId>{1});
}

TEST_F(ContainerPoolTest, BusyContainersCannotBeEvicted) {
  make_running(0, 600);
  make_running(1, 300);
  // All 900 busy; a 200 MB add must fail.
  EXPECT_FALSE(make_running(2, 200).valid());
  EXPECT_TRUE(evicted_.empty());
}

TEST_F(ContainerPoolTest, RemoveReleasesMemoryWithoutEvictionCallback) {
  ContainerHandle c = make_running(0, 300);
  pool_.remove(c);
  EXPECT_EQ(pool_.used_mb(), 0u);
  EXPECT_TRUE(evicted_.empty());
  EXPECT_FALSE(pool_.store().contains(c));
}

TEST_F(ContainerPoolTest, SweepRestoresFreeBuffer) {
  // Require 500 free: sweep must evict one 400 MB idle container.
  ContainerPool::Config cfg{.capacity_mb = 1000,
                            .free_buffer_mb = 500,
                            .sweep_interval = msecs(500)};
  // Rebuild a pool with a buffer (fixture pool has none): do it inline.
  std::vector<FunctionId> evicted;
  LruPolicy policy;
  ContainerPool pool(rt_, policy, cfg,
                     [&](const Container& c) { evicted.push_back(c.fn); });
  ContainerHandle x =
      pool.add_container(0, lookbusy(secs(1), 400, secs(1)), rt_.now());
  pool.launch(x, rt_.now());
  ContainerHandle y =
      pool.add_container(1, lookbusy(secs(1), 400, secs(1)), rt_.now());
  pool.launch(y, rt_.now());
  pool.return_container(x, secs(1));
  pool.return_container(y, secs(2));
  pool.sweep(secs(3));
  EXPECT_GE(pool.free_mb(), 500u);
  EXPECT_EQ(evicted.size(), 1u);
}

TEST_F(ContainerPoolTest, BackgroundSweepRunsOnTimer) {
  TtlPolicy ttl(secs(5));
  std::vector<FunctionId> evicted;
  ContainerPool pool(rt_, ttl,
                     ContainerPool::Config{.capacity_mb = 1000,
                                           .free_buffer_mb = 0,
                                           .sweep_interval = secs(1)},
                     [&](const Container& c) { evicted.push_back(c.fn); });
  ContainerHandle c =
      pool.add_container(0, lookbusy(secs(1), 100, secs(1)), rt_.now());
  pool.launch(c, rt_.now());
  pool.return_container(c, rt_.now());
  pool.start();
  rt_.run_until(secs(10));
  pool.stop();
  EXPECT_EQ(evicted.size(), 1u);
  EXPECT_EQ(pool.expirations(), 1u);
}

/// TTL policy that wants a prewarm after every expiry.
class PrefetchingTtl final : public ExpiringPolicy {
 public:
  std::string name() const override { return "PREFETCH_TTL"; }
  void on_access(CacheEntry&, TimePoint) override {}
  double eviction_rank(const CacheEntry& e) const override {
    return static_cast<double>(e.last_used.count());
  }
  std::optional<TimePoint> expires_at(const CacheEntry& e) const override {
    return e.last_used + secs(5);
  }
  std::optional<TimePoint> prewarm_at(FunctionId,
                                      TimePoint now) const override {
    return now;
  }
};

TEST_F(ContainerPoolTest, OnlyUsedContainersAskForPrewarmOnExpiry) {
  PrefetchingTtl policy;
  ContainerPool pool(rt_, policy,
                     ContainerPool::Config{.capacity_mb = 1000,
                                           .free_buffer_mb = 0},
                     nullptr);
  std::vector<FunctionId> requested;
  pool.set_prewarm_requester(
      [&](FunctionId fn, TimePoint) { requested.push_back(fn); });
  ContainerHandle used =
      pool.add_container(0, lookbusy(secs(1), 100, secs(1)), rt_.now());
  pool.launch(used, rt_.now());
  pool.return_container(used, secs(1));
  ContainerHandle parked =
      pool.add_container(1, lookbusy(secs(1), 100, secs(1)), rt_.now());
  pool.park_prewarmed(parked, secs(1));
  pool.sweep(secs(10));
  EXPECT_EQ(pool.expirations(), 2u);
  // The parked container was never needed: prewarming it again would loop.
  EXPECT_EQ(requested, std::vector<FunctionId>{0});
}

TEST_F(ContainerPoolTest, StopCancelsSweepTimer) {
  pool_.start();
  pool_.stop();
  rt_.run();  // must terminate (no periodic timer alive)
  SUCCEED();
}

TEST_F(ContainerPoolTest, ShrinkCapacityEvictsIdle) {
  ContainerHandle a = make_running(0, 400);
  pool_.return_container(a, secs(1));
  pool_.set_capacity_mb(100);
  EXPECT_EQ(pool_.used_mb(), 0u);
  EXPECT_EQ(evicted_.size(), 1u);
}

TEST_F(ContainerPoolTest, ParkPrewarmedMakesIdle) {
  auto profile = lookbusy(secs(1), 200, secs(1));
  ContainerHandle c = pool_.add_container(3, profile, rt_.now());
  pool_.park_prewarmed(c, rt_.now());
  EXPECT_TRUE(pool_.has_idle(3));
  EXPECT_EQ(pool_.acquire(3, rt_.now()), c);
}

TEST_F(ContainerPoolTest, SlotRecyclingBumpsGeneration) {
  ContainerHandle a = make_running(0, 100);
  pool_.remove(a);
  // Next add reuses the slot with a new generation: same index, stale old
  // handle.
  ContainerHandle b = make_running(0, 100);
  EXPECT_EQ(b.index, a.index);
  EXPECT_NE(b.gen, a.gen);
  EXPECT_FALSE(pool_.store().contains(a));
  EXPECT_TRUE(pool_.store().contains(b));
}

}  // namespace
}  // namespace ilu
