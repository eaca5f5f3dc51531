// Structural-invariant suite for the slab-backed ContainerPool (DESIGN.md
// §11): randomized churn with the pool's own O(n) validator run throughout,
// plus targeted checks for handle-generation reuse and the steady-state
// no-allocation guarantee of the slab free list.

#include <gtest/gtest.h>

#include "keepalive/pool.hpp"
#include "runtime/sim_runtime.hpp"
#include "trace/function_profile.hpp"
#include "util/rng.hpp"

namespace ilu {
namespace {

TEST(PoolInvariants, RandomChurnKeepsValidatorGreen) {
  SimRuntime rt;
  GreedyDualPolicy policy;
  std::uint64_t evicted = 0;
  ContainerPool pool(rt, policy,
                     ContainerPool::Config{.capacity_mb = 2500,
                                           .free_buffer_mb = 300,
                                           .sweep_interval = Duration::zero()},
                     [&](const Container&) { ++evicted; });
  Rng rng(1234);
  std::vector<ContainerHandle> running;
  std::string why;

  for (int step = 0; step < 30000; ++step) {
    double dice = rng.uniform();
    TimePoint now = usecs(step);
    auto fn = static_cast<FunctionId>(rng.uniform_index(8));
    if (dice < 0.35) {
      ContainerHandle c = pool.acquire(fn, now);
      if (c.valid()) running.push_back(c);
    } else if (dice < 0.65) {
      auto profile = lookbusy(msecs(100), 100 + 50 * (fn % 4), msecs(500));
      ContainerHandle c = pool.add_container(fn, profile, now);
      if (c.valid()) {
        pool.get(c).state = ContainerState::Running;
        running.push_back(c);
      }
    } else if (dice < 0.72) {
      auto profile = lookbusy(msecs(100), 120, msecs(500));
      ContainerHandle c = pool.add_container(fn, profile, now);
      if (c.valid()) {
        pool.park_prewarmed(c, now);
      }
    } else if (dice < 0.90 && !running.empty()) {
      auto i = static_cast<std::size_t>(rng.uniform_index(running.size()));
      pool.return_container(running[i], now);
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (dice < 0.97 && !running.empty()) {
      auto i = static_cast<std::size_t>(rng.uniform_index(running.size()));
      pool.remove(running[i]);
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      pool.sweep(now);
    }
    if (step % 250 == 0) {
      ASSERT_TRUE(pool.validate(&why)) << "step " << step << ": " << why;
    }
    ASSERT_LE(pool.used_mb(), 2500u);
    ASSERT_EQ(pool.total_count(), running.size() + pool.idle_count());
    // Every handle we believe is running must still be live and Running.
    if (step % 1000 == 0) {
      for (ContainerHandle h : running) {
        ASSERT_TRUE(pool.store().contains(h));
        ASSERT_EQ(pool.get(h).state, ContainerState::Running);
      }
    }
  }
  ASSERT_TRUE(pool.validate(&why)) << why;
  EXPECT_GT(evicted, 0u);
}

TEST(PoolInvariants, ExpirySweepKeepsValidatorGreen) {
  SimRuntime rt;
  TtlPolicy ttl(secs(2));
  ContainerPool pool(rt, ttl,
                     ContainerPool::Config{.capacity_mb = 10000,
                                           .free_buffer_mb = 0,
                                           .sweep_interval = Duration::zero()},
                     nullptr);
  std::string why;
  // Park a wave of idle containers, let them age past the TTL, sweep, and
  // repeat: exercises expiry in canonical slab order plus slot recycling.
  for (int wave = 0; wave < 20; ++wave) {
    TimePoint base = secs(10 * wave);
    for (int i = 0; i < 12; ++i) {
      auto fn = static_cast<FunctionId>(i % 5);
      ContainerHandle c =
          pool.add_container(fn, lookbusy(msecs(50), 128, msecs(100)), base);
      ASSERT_TRUE(c.valid());
      pool.get(c).state = ContainerState::Running;
      pool.return_container(c, base);
    }
    ASSERT_TRUE(pool.validate(&why)) << "wave " << wave << ": " << why;
    pool.sweep(base + secs(5));
    ASSERT_TRUE(pool.validate(&why)) << "wave " << wave << ": " << why;
    EXPECT_EQ(pool.idle_count(), 0u);
  }
  EXPECT_EQ(pool.expirations(), 20u * 12u);
}

TEST(PoolInvariants, HandleGenerationReuseNeverAliases) {
  SimRuntime rt;
  LruPolicy policy;
  ContainerPool pool(rt, policy,
                     ContainerPool::Config{.capacity_mb = 1000,
                                           .free_buffer_mb = 0,
                                           .sweep_interval = Duration::zero()},
                     nullptr);
  auto profile = lookbusy(msecs(50), 200, msecs(100));
  std::vector<ContainerHandle> stale;
  // Cycle the same slots many times; every retired handle must stay stale
  // even though its slot index is continuously recycled.
  for (int round = 0; round < 500; ++round) {
    ContainerHandle c = pool.add_container(0, profile, usecs(round));
    ASSERT_TRUE(c.valid());
    for (ContainerHandle old : stale) {
      ASSERT_FALSE(pool.store().contains(old));
      ASSERT_FALSE(old == c);
    }
    pool.remove(c);
    stale.push_back(c);
    if (stale.size() > 8) stale.erase(stale.begin());
  }
  EXPECT_EQ(pool.total_count(), 0u);
  // All churn reused one slot: the slab never grew past the first.
  EXPECT_EQ(pool.store().slot_count(), 1u);
}

TEST(PoolInvariants, SteadyStateChurnDoesNotGrowSlab) {
  SimRuntime rt;
  LruPolicy policy;
  ContainerPool pool(rt, policy,
                     ContainerPool::Config{.capacity_mb = 16 * 128,
                                           .free_buffer_mb = 0,
                                           .sweep_interval = Duration::zero()},
                     nullptr);
  auto profile = lookbusy(msecs(50), 128, msecs(100));
  // Fill to capacity, all idle.
  for (int i = 0; i < 16; ++i) {
    ContainerHandle c =
        pool.add_container(static_cast<FunctionId>(i % 4), profile, usecs(i));
    pool.get(c).state = ContainerState::Running;
    pool.return_container(c, usecs(i));
  }
  const std::size_t slots_after_warmup = pool.store().slot_count();
  // Steady-state churn: every add evicts one idle victim and recycles its
  // slot — the slab must not allocate again (instrumented-slab assertion).
  for (int i = 0; i < 5000; ++i) {
    ContainerHandle c = pool.add_container(static_cast<FunctionId>(i % 4),
                                           profile, usecs(100 + i));
    ASSERT_TRUE(c.valid());
    pool.get(c).state = ContainerState::Running;
    pool.return_container(c, usecs(100 + i));
  }
  EXPECT_EQ(pool.store().slot_count(), slots_after_warmup);
  EXPECT_EQ(pool.store().slot_count(), 16u);
}

}  // namespace
}  // namespace ilu
