#include "containers/netns_pool.hpp"

#include <gtest/gtest.h>

#include "runtime/sim_runtime.hpp"

namespace ilu {
namespace {

NetnsPool::Config pool_cfg(std::size_t target, bool enabled = true) {
  NetnsPool::Config cfg;
  cfg.target_size = target;
  cfg.low_watermark = target / 2;
  cfg.create_latency = LatencyModel::shifted(msecs(100), LatencyModel::zero());
  cfg.enabled = enabled;
  return cfg;
}

TEST(NetnsPool, PooledAcquireIsFree) {
  SimRuntime rt;
  NetnsPool pool(rt, Rng(1), pool_cfg(8));
  Duration penalty = secs(999);
  pool.acquire([&](std::uint64_t id, Duration p) {
    EXPECT_GT(id, 0u);
    penalty = p;
  });
  EXPECT_EQ(penalty, Duration::zero());
  EXPECT_EQ(pool.available(), 7u);  // served from the shelf
}

TEST(NetnsPool, ExhaustedPoolPaysSerializedCreation) {
  SimRuntime rt;
  NetnsPool pool(rt, Rng(1), pool_cfg(2));
  // Drain the pool.
  pool.acquire([](std::uint64_t, Duration) {});
  pool.acquire([](std::uint64_t, Duration) {});
  // Next three acquires queue behind the global lock: 100/200/300 ms —
  // except background refills may also hold the lock; penalties must be
  // strictly increasing multiples of 100 ms.
  std::vector<Duration> penalties;
  for (int i = 0; i < 3; ++i) {
    pool.acquire([&](std::uint64_t, Duration p) { penalties.push_back(p); });
  }
  ASSERT_EQ(penalties.size(), 3u);
  EXPECT_GT(penalties[0], Duration::zero());
  EXPECT_GT(penalties[1], penalties[0]);
  EXPECT_GT(penalties[2], penalties[1]);
  EXPECT_EQ((penalties[1] - penalties[0]).count() % msecs(100).count(), 0);
}

TEST(NetnsPool, BackgroundRefillRestoresPool) {
  SimRuntime rt;
  NetnsPool pool(rt, Rng(1), pool_cfg(4));
  for (int i = 0; i < 4; ++i) pool.acquire([](std::uint64_t, Duration) {});
  EXPECT_EQ(pool.available(), 0u);
  rt.run_until(secs(5));
  EXPECT_EQ(pool.available(), 4u);
}

TEST(NetnsPool, RefillTriggersAtLowWatermark) {
  SimRuntime rt;
  NetnsPool pool(rt, Rng(1), pool_cfg(8));  // watermark 4
  for (int i = 0; i < 5; ++i) pool.acquire([](std::uint64_t, Duration) {});
  EXPECT_EQ(pool.available(), 3u);
  rt.run_until(secs(5));
  EXPECT_EQ(pool.available(), 8u);
}

TEST(NetnsPool, DisabledPoolAlwaysPays) {
  SimRuntime rt;
  NetnsPool pool(rt, Rng(1), pool_cfg(8, /*enabled=*/false));
  Duration penalty{};
  pool.acquire([&](std::uint64_t, Duration p) { penalty = p; });
  EXPECT_EQ(penalty, msecs(100));  // a critical-path create
  EXPECT_EQ(pool.available(), 0u);   // nothing pooled, nothing refilled
}

TEST(NetnsPool, IdsAreUnique) {
  SimRuntime rt;
  NetnsPool pool(rt, Rng(1), pool_cfg(4));
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    pool.acquire([&](std::uint64_t id, Duration) { ids.push_back(id); });
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(NetnsPool, GlobalLockSharedBetweenRefillAndOnDemand) {
  SimRuntime rt;
  NetnsPool pool(rt, Rng(1), pool_cfg(2));
  // Drain and trigger refill; an immediate on-demand creation must queue
  // behind the in-flight background refill creation.
  pool.acquire([](std::uint64_t, Duration) {});
  pool.acquire([](std::uint64_t, Duration) {});  // refill starts
  Duration penalty{};
  pool.acquire([&](std::uint64_t, Duration p) { penalty = p; });
  EXPECT_GE(penalty, msecs(200));  // behind at least one refill creation
}

}  // namespace
}  // namespace ilu
