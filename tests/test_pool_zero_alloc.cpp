// Counting-allocator proof of the slab pool's zero-steady-state-allocation
// guarantee (DESIGN.md §11): after warm-up, the acquire/return hot path and
// the add/evict churn path must not touch the heap at all. Global
// operator new/delete are replaced in this binary only, so the test lives in
// its own executable rather than the shared suite.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "keepalive/pool.hpp"
#include "runtime/sim_runtime.hpp"
#include "trace/function_profile.hpp"

namespace {
std::atomic<std::uint64_t> g_new_calls{0};
}  // namespace

void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace ilu {
namespace {

constexpr int kFns = 8;
constexpr std::uint32_t kMemMb = 128;

TEST(PoolZeroAlloc, WarmAcquireReturnDoesNotAllocate) {
  SimRuntime rt;
  LruPolicy policy;
  ContainerPool pool(rt, policy,
                     ContainerPool::Config{.capacity_mb = 2 * kFns * kMemMb,
                                           .free_buffer_mb = 0,
                                           .sweep_interval = Duration::zero()},
                     nullptr);
  auto profile = lookbusy(msecs(100), kMemMb, msecs(500));
  // Warm-up: one idle container per function, plus a first acquire/return
  // round so every lazily grown structure reaches steady-state capacity.
  for (int i = 0; i < kFns; ++i) {
    ContainerHandle c =
        pool.add_container(static_cast<FunctionId>(i), profile, usecs(i));
    ASSERT_TRUE(c.valid());
    pool.get(c).state = ContainerState::Running;
    pool.return_container(c, usecs(i));
  }
  for (int i = 0; i < kFns; ++i) {
    ContainerHandle c = pool.acquire(static_cast<FunctionId>(i), usecs(10 + i));
    ASSERT_TRUE(c.valid());
    pool.return_container(c, usecs(10 + i));
  }

  std::uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  std::uint64_t t = 100;
  bool all_valid = true;
  for (int i = 0; i < 10000; ++i) {
    FunctionId fn = static_cast<FunctionId>(i % kFns);
    ContainerHandle c = pool.acquire(fn, usecs(t));
    all_valid = all_valid && c.valid();
    if (c.valid()) pool.return_container(c, usecs(t + 1));
    t += 2;
  }
  std::uint64_t after = g_new_calls.load(std::memory_order_relaxed);
  EXPECT_TRUE(all_valid);
  EXPECT_EQ(after - before, 0u)
      << "warm acquire/return path allocated " << (after - before) << " times";
}

TEST(PoolZeroAlloc, SteadyStateAddEvictChurnDoesNotAllocate) {
  SimRuntime rt;
  LruPolicy policy;
  ContainerPool pool(rt, policy,
                     ContainerPool::Config{.capacity_mb = kFns * kMemMb,
                                           .free_buffer_mb = 0,
                                           .sweep_interval = Duration::zero()},
                     nullptr);
  auto profile = lookbusy(msecs(100), kMemMb, msecs(500));
  // Warm-up to capacity so every later add evicts and recycles a slot.
  for (int i = 0; i < 4 * kFns; ++i) {
    ContainerHandle c = pool.add_container(static_cast<FunctionId>(i % kFns),
                                           profile, usecs(i));
    ASSERT_TRUE(c.valid());
    pool.get(c).state = ContainerState::Running;
    pool.return_container(c, usecs(i));
  }

  std::uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  std::uint64_t t = 1000;
  bool all_valid = true;
  for (int i = 0; i < 10000; ++i) {
    ContainerHandle c = pool.add_container(static_cast<FunctionId>(i % kFns),
                                           profile, usecs(t));
    all_valid = all_valid && c.valid();
    if (c.valid()) {
      pool.get(c).state = ContainerState::Running;
      pool.return_container(c, usecs(t + 1));
    }
    t += 2;
  }
  std::uint64_t after = g_new_calls.load(std::memory_order_relaxed);
  EXPECT_TRUE(all_valid);
  EXPECT_EQ(after - before, 0u)
      << "add/evict churn path allocated " << (after - before) << " times";
}

}  // namespace
}  // namespace ilu
