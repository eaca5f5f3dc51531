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

TEST_F(ContainerPoolTest, FreeMemorySaturatesBelowBusyContainers) {
  // Capacity drops below what three busy 1,024 MB containers pin; free
  // memory must read 0, not wrap, so the sweep still restores what buffer
  // it can by evicting the container that goes idle.
  std::vector<FunctionId> evicted;
  LruPolicy policy;
  ContainerPool pool(rt_, policy,
                     ContainerPool::Config{.capacity_mb = 4096,
                                           .free_buffer_mb = 2048},
                     [&](const Container& c) { evicted.push_back(c.fn); });
  std::vector<ContainerHandle> busy;
  for (FunctionId fn = 0; fn < 3; ++fn) {
    busy.push_back(
        pool.add_container(fn, lookbusy(secs(1), 1024, secs(1)), rt_.now()));
    pool.launch(busy.back(), rt_.now());
  }
  pool.set_capacity_mb(2048);
  EXPECT_EQ(pool.free_mb(), 0u);
  pool.return_container(busy[0], secs(1));
  pool.sweep(secs(2));
  EXPECT_EQ(evicted, std::vector<FunctionId>{0});
  EXPECT_EQ(pool.used_mb(), 2048u);
  EXPECT_EQ(pool.free_mb(), 0u);
}

TEST_F(ContainerPoolTest, IdlePoolArmsNoSweep) {
  // The fixture pool never expires containers and keeps no buffer: no
  // sweep can act, so none is armed, with or without idle containers.
  pool_.start();
  EXPECT_EQ(rt_.pending(), 0u);
  ContainerHandle a = make_running(0, 900);
  pool_.return_container(a, rt_.now());
  EXPECT_EQ(rt_.pending(), 0u);
  pool_.stop();

  // With a buffer, a sweep is armed only once an idle container exists
  // while the buffer is short, and lapses once the buffer is restored.
  LruPolicy policy;
  ContainerPool pool(rt_, policy,
                     ContainerPool::Config{.capacity_mb = 1000,
                                           .free_buffer_mb = 500},
                     nullptr);
  pool.start();
  ContainerHandle b =
      pool.add_container(1, lookbusy(secs(1), 600, secs(1)), rt_.now());
  pool.launch(b, rt_.now());
  EXPECT_EQ(rt_.pending(), 0u) << "short, but nothing idle to evict";
  pool.return_container(b, rt_.now());
  EXPECT_EQ(rt_.pending(), 1u);
  rt_.run_until(secs(10));
  EXPECT_EQ(pool.evictions(), 1u);
  EXPECT_EQ(rt_.pending(), 0u);
}

TEST_F(ContainerPoolTest, LateSweepLandsOnTheStartGrid) {
  // Started at 300 ms with a 500 ms interval, the grid is 0.8 s, 1.3 s,
  // 1.8 s, ... An idle container sits harmlessly until an add at 1.2 s
  // makes the buffer short: it must go at 1.3 s, where a timer re-armed
  // since start would have swept, and then the timer must lapse.
  std::vector<TimePoint> evicted_at;
  LruPolicy policy;
  ContainerPool pool(rt_, policy,
                     ContainerPool::Config{.capacity_mb = 1000,
                                           .free_buffer_mb = 500,
                                           .sweep_interval = msecs(500)},
                     [&](const Container&) { evicted_at.push_back(rt_.now()); });
  ContainerHandle idle =
      pool.add_container(0, lookbusy(secs(1), 400, secs(1)), rt_.now());
  pool.launch(idle, rt_.now());
  pool.return_container(idle, msecs(100));
  rt_.run_until(msecs(300));
  pool.start();
  EXPECT_EQ(rt_.pending(), 0u);
  rt_.run_until(msecs(1200));
  ContainerHandle busy =
      pool.add_container(1, lookbusy(secs(1), 300, secs(1)), rt_.now());
  pool.launch(busy, rt_.now());
  rt_.run_until(secs(10));
  EXPECT_EQ(evicted_at, std::vector<TimePoint>{msecs(1300)});
  EXPECT_EQ(rt_.pending(), 0u) << "the timer did not lapse";
}

TEST_F(ContainerPoolTest, TtlExpiriesKeepTheGridAndThenLapse) {
  // Idle containers expire 2 s after their last use, swept on a 500 ms
  // grid from 0: each goes at the first grid point at or after its expiry,
  // as under a timer re-armed every interval, and the timer lapses with
  // the last one.
  TtlPolicy ttl(secs(2));
  std::vector<TimePoint> expired_at;
  ContainerPool pool(rt_, ttl,
                     ContainerPool::Config{.capacity_mb = 1000,
                                           .free_buffer_mb = 0,
                                           .sweep_interval = msecs(500)},
                     [&](const Container&) { expired_at.push_back(rt_.now()); });
  pool.start();
  EXPECT_EQ(rt_.pending(), 0u);
  for (auto [fn, last_use] : {std::pair{0, msecs(100)},
                              std::pair{1, msecs(700)},
                              std::pair{2, msecs(1900)}}) {
    rt_.run_until(last_use);
    ContainerHandle c = pool.add_container(
        static_cast<FunctionId>(fn), lookbusy(secs(1), 100, secs(1)),
        rt_.now());
    pool.launch(c, rt_.now());
    pool.return_container(c, rt_.now());
  }
  rt_.run_until(secs(10));
  EXPECT_EQ(expired_at,
            (std::vector<TimePoint>{msecs(2500), msecs(3000), msecs(4000)}));
  EXPECT_EQ(pool.expirations(), 3u);
  EXPECT_EQ(rt_.pending(), 0u) << "the timer did not lapse";
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
