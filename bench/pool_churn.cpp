// pool_churn — cold-start -> invoke -> evict cycle throughput of the
// keep-alive container pool, slab/handle implementation vs the pointer-based
// design it replaced (bench/pointer_pool_baseline.hpp).
//
// Each cycle registers a fresh container (which, at steady state, evicts the
// LRU idle victim to make room), runs one warm acquire/return on another
// function, and returns the new container to the idle set. This exercises
// exactly the paths the slab refactor targets: record allocation/recycling,
// idle-list maintenance, and eviction-victim selection.
//
// Usage: pool_churn [--cycles N] [--reps R]
// Prints ops/s for both implementations and the speedup; exits non-zero if
// the two implementations disagree on eviction counts (a semantic check,
// not a perf one).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "keepalive/pool.hpp"
#include "pointer_pool_baseline.hpp"
#include "runtime/sim_runtime.hpp"
#include "trace/function_profile.hpp"

namespace ilu {
namespace {

constexpr int kFns = 16;
constexpr std::uint32_t kMemMb = 128;
// 48 container slots: small enough that every steady-state add evicts.
constexpr std::uint64_t kCapacityMb = 48 * kMemMb;

struct ChurnResult {
  double ops_per_sec = 0.0;
  std::uint64_t evictions = 0;
};

/// One churn cycle against the slab pool; returns eviction count.
std::uint64_t churn_slab(ContainerPool& pool, const FunctionProfile& profile,
                         int cycles) {
  std::uint64_t t = 0;
  for (int i = 0; i < cycles; ++i) {
    FunctionId fn = static_cast<FunctionId>(i % kFns);
    ContainerHandle c = pool.add_container(fn, profile, usecs(t));
    if (c.valid()) {
      pool.get(c).state = ContainerState::Running;
      // Warm hit on the previously churned function while the new
      // container is "executing".
      ContainerHandle warm =
          pool.acquire(static_cast<FunctionId>((i + 1) % kFns), usecs(t + 1));
      if (warm.valid()) pool.return_container(warm, usecs(t + 2));
      pool.return_container(c, usecs(t + 3));
    }
    t += 4;
  }
  return pool.evictions();
}

std::uint64_t churn_pointer(PointerContainerPool& pool,
                            const FunctionProfile& profile, int cycles) {
  std::uint64_t t = 0;
  for (int i = 0; i < cycles; ++i) {
    FunctionId fn = static_cast<FunctionId>(i % kFns);
    Container* c = pool.add_container(fn, profile, usecs(t));
    if (c != nullptr) {
      c->state = ContainerState::Running;
      Container* warm =
          pool.acquire(static_cast<FunctionId>((i + 1) % kFns), usecs(t + 1));
      if (warm != nullptr) pool.return_container(warm, usecs(t + 2));
      pool.return_container(c, usecs(t + 3));
    }
    t += 4;
  }
  return pool.evictions();
}

template <typename F>
ChurnResult best_of(int reps, int cycles, F&& run_once) {
  ChurnResult best;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    std::uint64_t evictions = run_once();
    auto t1 = std::chrono::steady_clock::now();
    double s = std::chrono::duration<double>(t1 - t0).count();
    double ops = static_cast<double>(cycles) / s;
    if (ops > best.ops_per_sec) best.ops_per_sec = ops;
    best.evictions = evictions;
  }
  return best;
}

int run(int cycles, int reps) {
  auto profile = lookbusy(msecs(100), kMemMb, msecs(500));

  SimRuntime rt;
  LruPolicy slab_policy;
  ContainerPool slab_pool(
      rt, slab_policy,
      ContainerPool::Config{.capacity_mb = kCapacityMb,
                            .free_buffer_mb = 0,
                            .sweep_interval = Duration::zero()},
      nullptr);
  churn_slab(slab_pool, profile, cycles / 10);  // warm-up: fill + recycle
  ChurnResult slab = best_of(reps, cycles, [&] {
    return churn_slab(slab_pool, profile, cycles);
  });

  LruPolicy ptr_policy;
  PointerContainerPool ptr_pool(ptr_policy, kCapacityMb);
  churn_pointer(ptr_pool, profile, cycles / 10);
  ChurnResult ptr = best_of(reps, cycles, [&] {
    return churn_pointer(ptr_pool, profile, cycles);
  });

  double speedup = slab.ops_per_sec / ptr.ops_per_sec;
  std::printf("%-40s %14.0f /s\n", "churn cycles (slab/handle pool)",
              slab.ops_per_sec);
  std::printf("%-40s %14.0f /s\n", "churn cycles (pointer-based pool)",
              ptr.ops_per_sec);
  std::printf("%-40s %14.2fx\n", "slab speedup", speedup);

  // Semantic cross-check: same policy + same cycle sequence must evict the
  // same number of containers in both implementations.
  if (slab.evictions != ptr.evictions) {
    std::fprintf(stderr,
                 "eviction mismatch: slab=%llu pointer=%llu — the two pool "
                 "implementations diverged\n",
                 static_cast<unsigned long long>(slab.evictions),
                 static_cast<unsigned long long>(ptr.evictions));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ilu

int main(int argc, char** argv) {
  int cycles = 200000;
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cycles") == 0 && i + 1 < argc) {
      cycles = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--cycles N] [--reps R]\n", argv[0]);
      return 2;
    }
  }
  return ilu::run(cycles, reps);
}
