// Property-based and randomized ("fuzz") tests: cross-check complex
// components against simple reference implementations and check invariants
// under random operation sequences.

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <memory>
#include <tuple>

#include "containers/cpu_model.hpp"
#include "core/worker.hpp"
#include "keepalive/pool.hpp"
#include "keepalive/simulator.hpp"
#include "lb/cluster.hpp"
#include "queueing/invocation_queue.hpp"
#include "runtime/sim_runtime.hpp"
#include "trace/function_profile.hpp"
#include "util/rng.hpp"

namespace ilu {
namespace {

// ---------- KeepAliveReplay vs a reference LRU model ----------

/// Straight-line reference: a list of (fn, release_time) containers with
/// LRU eviction and no TTL, processed per-invocation. Last use is stamped
/// at completion, when the container comes back, as the worker's pool does.
struct ReferenceLru {
  struct Entry {
    FunctionId fn;
    TimePoint last_used;
    TimePoint busy_until;
    std::uint32_t mem;
  };
  std::uint64_t capacity;
  std::uint64_t used = 0;
  std::list<Entry> entries;  // arbitrary order; scanned
  std::uint64_t cold = 0, warm = 0, dropped = 0;

  void invoke(FunctionId fn, std::uint32_t mem, Duration exec_warm,
              Duration exec_cold, TimePoint t) {
    // Warm hit: most recently used idle entry of fn.
    Entry* best = nullptr;
    for (auto& e : entries) {
      if (e.fn == fn && e.busy_until <= t) {
        if (best == nullptr || e.last_used > best->last_used) best = &e;
      }
    }
    if (best != nullptr) {
      ++warm;
      best->last_used = t + exec_warm;
      best->busy_until = t + exec_warm;
      return;
    }
    // Cold: evict LRU idle entries until it fits.
    while (used + mem > capacity) {
      Entry* victim = nullptr;
      for (auto& e : entries) {
        if (e.busy_until <= t &&
            (victim == nullptr || e.last_used < victim->last_used)) {
          victim = &e;
        }
      }
      if (victim == nullptr) break;
      used -= victim->mem;
      entries.remove_if([&](const Entry& e) { return &e == victim; });
    }
    if (used + mem > capacity) {
      ++dropped;
      return;
    }
    ++cold;
    used += mem;
    entries.push_back(Entry{fn, t + exec_cold, t + exec_cold, mem});
  }
};

TEST(FuzzKeepAliveReplay, MatchesReferenceLruOnRandomWorkloads) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    std::vector<FunctionProfile> fns;
    for (int i = 0; i < 12; ++i) {
      fns.push_back(lookbusy(msecs(rng.uniform(50, 2000)),
                             static_cast<std::uint32_t>(rng.uniform(64, 512)),
                             msecs(rng.uniform(100, 3000))));
    }
    LruPolicy policy;
    KeepAliveReplay replay(policy, 1500, fns);
    ReferenceLru ref{.capacity = 1500, .used = 0, .entries = {}};

    TimePoint t{};
    for (int k = 0; k < 3000; ++k) {
      t += msecs(rng.uniform(1, 500));
      auto fn = static_cast<FunctionId>(rng.uniform_index(fns.size()));
      replay.on_invocation(fn, t);
      ref.invoke(fn, fns[fn].mem_mb, fns[fn].warm_time, fns[fn].cold_time(),
                 t);
    }
    EXPECT_EQ(replay.stats().warm_starts, ref.warm) << "seed " << seed;
    EXPECT_EQ(replay.stats().cold_starts, ref.cold) << "seed " << seed;
    EXPECT_EQ(replay.stats().dropped, ref.dropped) << "seed " << seed;
  }
}

TEST(FuzzKeepAliveReplay, MemoryNeverExceedsCapacityUnderAnyPolicy) {
  for (const char* pol : {"TTL", "LRU", "FREQ", "GD", "LND", "HIST"}) {
    auto policy = make_policy(pol);
    Rng rng(42);
    std::vector<FunctionProfile> fns;
    for (int i = 0; i < 20; ++i) {
      fns.push_back(lookbusy(msecs(rng.uniform(10, 800)),
                             static_cast<std::uint32_t>(rng.uniform(32, 700)),
                             msecs(rng.uniform(50, 4000))));
    }
    KeepAliveReplay replay(*policy, 2000, fns);
    TimePoint t{};
    std::uint64_t admitted = 0;
    for (int k = 0; k < 5000; ++k) {
      t += msecs(rng.uniform(0, 300));
      auto out = replay.on_invocation(
          static_cast<FunctionId>(rng.uniform_index(fns.size())), t);
      if (!out.dropped) ++admitted;
      // Core safety invariant: never oversubscribe memory.
      ASSERT_LE(replay.pool().used_mb(), 2000u) << pol << " step " << k;
    }
    EXPECT_GT(admitted, 0u);
    const auto stats = replay.stats();
    EXPECT_EQ(stats.warm_starts + stats.cold_starts + stats.dropped, 5000u)
        << pol;
  }
}

// ---------- ContainerPool under random operations ----------

TEST(FuzzContainerPool, RandomOpsPreserveInvariants) {
  SimRuntime rt;
  LruPolicy policy;
  std::uint64_t evicted = 0;
  ContainerPool pool(rt, policy,
                     ContainerPool::Config{.capacity_mb = 3000,
                                           .free_buffer_mb = 0,
                                           .sweep_interval = Duration::zero()},
                     [&](const Container&) { ++evicted; });
  Rng rng(7);
  std::vector<ContainerHandle> running;
  std::uint64_t created = 0, removed = 0, returned = 0, acquired = 0;

  for (int step = 0; step < 20000; ++step) {
    double dice = rng.uniform();
    TimePoint now = usecs(step);
    if (dice < 0.40) {
      auto fn = static_cast<FunctionId>(rng.uniform_index(10));
      ContainerHandle c = pool.acquire(fn, now);
      if (c.valid()) {
        ASSERT_EQ(pool.get(c).state, ContainerState::Running);
        ASSERT_EQ(pool.get(c).fn, fn);
        running.push_back(c);
        ++acquired;
      }
    } else if (dice < 0.70) {
      auto fn = static_cast<FunctionId>(rng.uniform_index(10));
      auto profile =
          lookbusy(msecs(100), 100 + 37 * (fn % 5), msecs(500));
      ContainerHandle c = pool.add_container(fn, profile, now);
      if (c.valid()) {
        pool.get(c).state = ContainerState::Running;
        running.push_back(c);
        ++created;
      }
    } else if (dice < 0.95 && !running.empty()) {
      auto i = static_cast<std::size_t>(rng.uniform_index(running.size()));
      pool.return_container(running[i], now);
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
      ++returned;
    } else if (!running.empty()) {
      auto i = static_cast<std::size_t>(rng.uniform_index(running.size()));
      pool.remove(running[i]);
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
      ++removed;
    }
    ASSERT_LE(pool.used_mb(), 3000u);
    ASSERT_EQ(pool.total_count(), running.size() + pool.idle_count());
  }
  // Conservation: every container created was acquired-from-idle, still
  // running, idle, removed, or evicted.
  EXPECT_EQ(created, running.size() + pool.idle_count() + removed + evicted +
                         0 * acquired + 0 * returned);
}

// ---------- Lazy sweep timer vs a pool swept at every grid point ----------

/// A pool's evictions as (time, fn, expired), in order.
struct EvictionLog {
  const Runtime* rt = nullptr;
  const ContainerPool* pool = nullptr;
  std::uint64_t expirations = 0;
  std::vector<std::tuple<std::int64_t, FunctionId, bool>> stream;

  void record(const Container& c) {
    const bool expired = pool->expirations() != expirations;
    expirations = pool->expirations();
    stream.emplace_back(rt->now().count(), c.fn, expired);
  }
};

/// The six policies, with TTL and HIST windows short enough that
/// containers expire within a run.
std::unique_ptr<KeepAlivePolicy> short_window_policy(const std::string& name) {
  if (name == "TTL") return std::make_unique<TtlPolicy>(secs(20));
  if (name == "HIST") {
    HistPolicy::Params p;
    p.generic_ttl = secs(40);
    p.linger = secs(5);
    return std::make_unique<HistPolicy>(p);
  }
  return make_policy(name);
}

/// The same random add, launch, park, return, acquire, remove and capacity
/// operations, at random instants off the sweep grid, drive two pools: one
/// arms its own sweep timer, the other has none and is swept at every grid
/// point, as a timer re-armed every interval would sweep it. Both must
/// evict the same containers at the same instants. Adds the run's
/// evictions to `evictions`.
void expect_lazy_matches_grid_sweeps(const std::string& policy,
                                     std::uint64_t buffer_mb,
                                     std::uint64_t seed,
                                     std::size_t& evictions) {
  const std::string where = policy + " buffer " + std::to_string(buffer_mb) +
                            " seed " + std::to_string(seed);
  constexpr Duration kInterval = msecs(500);
  Rng rng(seed);
  SimRuntime rt_lazy;
  SimRuntime rt_grid;
  auto policy_lazy = short_window_policy(policy);
  auto policy_grid = short_window_policy(policy);
  EvictionLog log_lazy;
  EvictionLog log_grid;
  log_lazy.rt = &rt_lazy;
  log_grid.rt = &rt_grid;
  ContainerPool lazy(rt_lazy, *policy_lazy,
                     ContainerPool::Config{.capacity_mb = 2000,
                                           .free_buffer_mb = buffer_mb,
                                           .sweep_interval = kInterval},
                     [&](const Container& c) { log_lazy.record(c); });
  ContainerPool grid(rt_grid, *policy_grid,
                     ContainerPool::Config{.capacity_mb = 2000,
                                           .free_buffer_mb = buffer_mb,
                                           .sweep_interval = Duration::zero()},
                     [&](const Container& c) { log_grid.record(c); });
  log_lazy.pool = &lazy;
  log_grid.pool = &grid;
  using Prewarm = std::tuple<std::int64_t, FunctionId, std::int64_t>;
  std::vector<Prewarm> prewarms_lazy;
  std::vector<Prewarm> prewarms_grid;
  lazy.set_prewarm_requester([&](FunctionId fn, TimePoint at) {
    prewarms_lazy.emplace_back(rt_lazy.now().count(), fn, at.count());
  });
  grid.set_prewarm_requester([&](FunctionId fn, TimePoint at) {
    prewarms_grid.emplace_back(rt_grid.now().count(), fn, at.count());
  });

  const TimePoint start = usecs(static_cast<std::int64_t>(
      rng.uniform_index(1'000'000)));
  const TimePoint end = start + mins(25);
  rt_lazy.run_until(start);
  rt_grid.run_until(start);
  lazy.start();
  for (TimePoint g = start + kInterval; g <= end; g += kInterval) {
    rt_grid.schedule(g - start, [&] { grid.sweep(rt_grid.now()); });
  }

  struct Both {
    ContainerHandle lazy;
    ContainerHandle grid;
    FunctionId fn;
  };
  std::vector<Both> provisioning;
  std::vector<Both> running;
  auto take = [&](std::vector<Both>& from) {
    const auto i = static_cast<std::ptrdiff_t>(rng.uniform_index(from.size()));
    Both b = from[static_cast<std::size_t>(i)];
    from.erase(from.begin() + i);
    return b;
  };
  TimePoint t = start;
  for (int step = 0; step < 400; ++step) {
    t += usecs(1 + static_cast<std::int64_t>(rng.uniform_index(3'000'000)));
    if ((t - start) % kInterval == Duration::zero()) t += usecs(1);
    rt_lazy.run_until(t);
    rt_grid.run_until(t);
    const auto fn = static_cast<FunctionId>(rng.uniform_index(8));
    const double dice = rng.uniform();
    if (dice < 0.25) {
      const auto profile = lookbusy(msecs(100), 64 * (1 + fn % 6), secs(1));
      Both b{lazy.add_container(fn, profile, t),
             grid.add_container(fn, profile, t), fn};
      ASSERT_EQ(b.lazy.valid(), b.grid.valid()) << where << " step " << step;
      if (b.lazy.valid()) provisioning.push_back(b);
    } else if (dice < 0.40 && !provisioning.empty()) {
      Both b = take(provisioning);
      policy_lazy->on_invocation(b.fn, t);
      policy_grid->on_invocation(b.fn, t);
      lazy.launch(b.lazy, t);
      grid.launch(b.grid, t);
      running.push_back(b);
    } else if (dice < 0.45 && !provisioning.empty()) {
      Both b = take(provisioning);
      lazy.park_prewarmed(b.lazy, t);
      grid.park_prewarmed(b.grid, t);
    } else if (dice < 0.70 && !running.empty()) {
      Both b = take(running);
      lazy.return_container(b.lazy, t);
      grid.return_container(b.grid, t);
    } else if (dice < 0.88) {
      policy_lazy->on_invocation(fn, t);
      policy_grid->on_invocation(fn, t);
      Both b{lazy.acquire(fn, t), grid.acquire(fn, t), fn};
      ASSERT_EQ(b.lazy.valid(), b.grid.valid()) << where << " step " << step;
      if (b.lazy.valid()) running.push_back(b);
    } else if (dice < 0.93 && !running.empty()) {
      Both b = take(rng.bernoulli(0.5) || provisioning.empty() ? running
                                                               : provisioning);
      lazy.remove(b.lazy);
      grid.remove(b.grid);
    } else {
      const std::uint64_t mb = 100 * (8 + rng.uniform_index(18));
      lazy.set_capacity_mb(mb);
      grid.set_capacity_mb(mb);
    }
    ASSERT_EQ(lazy.used_mb(), grid.used_mb()) << where << " step " << step;
    ASSERT_EQ(lazy.idle_count(), grid.idle_count()) << where << " step " << step;
    ASSERT_LE(rt_lazy.pending(), 1u) << where << " step " << step;
  }
  rt_lazy.run_until(end);
  rt_grid.run_until(end);

  EXPECT_EQ(log_lazy.stream, log_grid.stream) << where;
  EXPECT_EQ(prewarms_lazy, prewarms_grid) << where;
  evictions += log_lazy.stream.size();
  std::string why;
  EXPECT_TRUE(lazy.validate(&why)) << where << ": " << why;
  EXPECT_TRUE(grid.validate(&why)) << where << ": " << why;
  if (lazy.idle_count() == 0) {
    EXPECT_EQ(rt_lazy.pending(), 0u) << where;
  }
  if (buffer_mb == 0 && policy != "TTL" && policy != "HIST") {
    EXPECT_EQ(rt_lazy.events_processed(), 0u) << where << ": nothing to sweep";
  }
}

TEST(FuzzLazySweep, MatchesGridSweepsWithoutBuffer) {
  for (const char* policy : {"TTL", "LRU", "FREQ", "GD", "LND", "HIST"}) {
    std::size_t evictions = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      expect_lazy_matches_grid_sweeps(policy, 0, seed, evictions);
    }
    EXPECT_GT(evictions, 0u) << policy;
  }
}

TEST(FuzzLazySweep, MatchesGridSweepsWithBuffer) {
  for (const char* policy : {"TTL", "LRU", "FREQ", "GD", "LND", "HIST"}) {
    std::size_t evictions = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      expect_lazy_matches_grid_sweeps(policy, 500, seed, evictions);
    }
    EXPECT_GT(evictions, 0u) << policy;
  }
}

// ---------- Worker and Cluster quiescence under faults ----------

/// A random worker set-up and workload: any keep-alive policy, a 1 or 2 GB
/// worker with or without a free buffer, create/invoke faults, 0-2 create
/// retries, and functions up to 3 GB (some larger than the worker).
struct QuiescenceScenario {
  WorkerConfig cfg;
  std::vector<FunctionProfile> functions;
  struct Arrival {
    TimePoint at;
    FunctionId fn;
    bool prewarm;  // else an invocation
    std::size_t worker;  // which cluster worker a prewarm targets
  };
  std::vector<Arrival> arrivals;
  std::size_t invocations = 0;
};

QuiescenceScenario random_scenario(std::uint64_t seed, bool oversize) {
  static const char* const kPolicies[] = {"TTL", "LRU", "FREQ",
                                          "GD",  "LND", "HIST"};
  Rng rng(seed);
  QuiescenceScenario s;
  WorkerConfig& cfg = s.cfg;
  cfg.cores = 4.0;
  cfg.memory_mb = rng.bernoulli(0.5) ? 1024 : 2048;
  cfg.pool.free_buffer_mb = rng.bernoulli(0.5) ? 0 : 256;
  cfg.pool.sweep_interval = msecs(500);
  cfg.keepalive_policy = kPolicies[rng.uniform_index(6)];
  cfg.faults.create_failure_prob = rng.uniform(0.0, 0.3);
  cfg.faults.invoke_failure_prob = rng.uniform(0.0, 0.2);
  cfg.create_retries = static_cast<int>(rng.uniform_index(3));
  cfg.regulator.limit = 6.0;
  cfg.seed = rng.next_u64();
  const std::size_t nfns = 3 + rng.uniform_index(4);
  for (std::size_t i = 0; i < nfns; ++i) {
    const std::uint64_t max_mb = oversize ? 3072 : cfg.memory_mb;
    s.functions.push_back(FunctionProfile{
        .name = "f" + std::to_string(i),
        .mem_mb = static_cast<std::uint32_t>(
            128 * (1 + rng.uniform_index(max_mb / 128))),
        .warm_time = msecs(rng.uniform(5.0, 300.0)),
        .init_time = msecs(rng.uniform(50.0, 800.0))});
  }
  if (oversize) s.functions.back().mem_mb = 3072;
  for (int i = 0; i < 80; ++i) {
    const bool prewarm = rng.bernoulli(0.1);
    s.arrivals.push_back({msecs(rng.uniform(0.0, 20000.0)),
                          static_cast<FunctionId>(rng.uniform_index(nfns)),
                          prewarm, rng.uniform_index(2)});
    if (!prewarm) ++s.invocations;
  }
  return s;
}

/// Drain the runtime, then check that nothing was lost or stranded.
void expect_quiescent(Worker& w, const std::string& where) {
  EXPECT_EQ(w.status().running, 0u) << where;
  EXPECT_EQ(w.status().queue_len, 0u) << where;
  EXPECT_EQ(w.status().parked, 0u) << where;
  std::string why;
  EXPECT_TRUE(w.pool().validate(&why)) << where << ": " << why;
}

/// Every submitted invocation called back exactly once.
void expect_each_called_once(const std::vector<int>& calls,
                             const std::string& where) {
  for (std::size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i], 1) << where << " invocation " << i;
  }
}

TEST(FuzzQuiescence, WorkerCallsBackEveryInvocationOnce) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const auto s = random_scenario(seed, /*oversize=*/seed % 2 == 0);
    const std::string where = "seed " + std::to_string(seed);
    SimRuntime rt;
    Worker w(rt, s.cfg);
    for (const auto& f : s.functions) w.register_function(f);
    w.start();
    std::vector<int> calls(s.invocations, 0);
    std::size_t next = 0;
    for (const auto& a : s.arrivals) {
      if (a.prewarm) {
        rt.schedule(a.at, [&w, fn = a.fn] { w.prewarm(fn); });
      } else {
        rt.schedule(a.at, [&w, &calls, fn = a.fn, i = next++] {
          w.invoke(fn, [&calls, i](const InvokeResult&) { ++calls[i]; });
        });
      }
    }
    rt.run_for(mins(20));
    expect_each_called_once(calls, where);
    expect_quiescent(w, where);
    EXPECT_EQ(w.completed() + w.failures(), s.invocations) << where;
    w.shutdown();
  }
}

TEST(FuzzQuiescence, ChblClusterCallsBackEveryInvocationOnce) {
  for (std::uint64_t seed = 1001; seed <= 1060; ++seed) {
    const auto s = random_scenario(seed, /*oversize=*/seed % 2 == 0);
    const std::string where = "seed " + std::to_string(seed);
    SimRuntime rt;
    ClusterConfig cc;
    cc.num_workers = 2;
    cc.lb = LbPolicy::ChBl;
    cc.worker = s.cfg;
    cc.seed = seed;
    Cluster cluster(rt, cc);
    for (const auto& f : s.functions) cluster.register_function(f);
    cluster.start();
    std::vector<int> calls(s.invocations, 0);
    std::size_t next = 0;
    for (const auto& a : s.arrivals) {
      if (a.prewarm) {
        rt.schedule(a.at, [&cluster, a] { cluster.worker(a.worker).prewarm(a.fn); });
      } else {
        rt.schedule(a.at, [&cluster, &calls, fn = a.fn, i = next++] {
          cluster.invoke(fn,
                         [&calls, i](const InvokeResult&) { ++calls[i]; });
        });
      }
    }
    rt.run_for(mins(20));
    expect_each_called_once(calls, where);
    std::uint64_t settled = 0;
    for (std::size_t i = 0; i < cluster.num_workers(); ++i) {
      expect_quiescent(cluster.worker(i),
                       where + " worker " + std::to_string(i));
      settled += cluster.worker(i).completed() + cluster.worker(i).failures();
    }
    EXPECT_EQ(settled, s.invocations) << where;
    cluster.shutdown();
  }
}

// ---------- InvocationQueue ordering property ----------

TEST(FuzzInvocationQueue, PopOrderMatchesSortedPriorities) {
  CharacteristicsMap chars;
  Rng rng(11);
  for (FunctionId f = 0; f < 20; ++f) {
    chars.on_arrival(f, secs(0));
    chars.record_warm(f, msecs(rng.uniform(10, 5000)));
    chars.record_cold(f, msecs(rng.uniform(100, 9000)));
  }
  for (const char* pol : {"FCFS", "SJF", "EEDF", "RARE"}) {
    auto policy = make_queue_policy(pol);
    InvocationQueue q(*policy, chars);
    std::vector<std::pair<double, std::uint64_t>> expected;  // (pri, seq)
    std::uint64_t seq = 0;
    for (int i = 0; i < 500; ++i) {
      QueueItem item;
      item.fn = static_cast<FunctionId>(rng.uniform_index(20));
      item.arrival = msecs(rng.uniform(0, 100000));
      bool warm = rng.bernoulli(0.5);
      expected.emplace_back(policy->priority(item, chars, warm), seq++);
      q.push(std::move(item), warm);
    }
    std::sort(expected.begin(), expected.end());
    for (const auto& [pri, s] : expected) {
      auto item = q.pop();
      ASSERT_TRUE(item.has_value()) << pol;
      ASSERT_EQ(item->seq, s) << pol;
    }
    EXPECT_TRUE(q.empty());
  }
}

// ---------- SimRuntime determinism under random scheduling ----------

TEST(FuzzSimRuntime, RandomDagReplaysIdentically) {
  auto run = [](std::uint64_t seed) {
    SimRuntime rt;
    Rng rng(seed);
    std::vector<std::uint64_t> log;
    std::function<void(int)> spawn = [&](int depth) {
      log.push_back(rt.now().count());
      if (depth >= 4) return;
      int children = static_cast<int>(rng.uniform_index(3));
      for (int c = 0; c < children; ++c) {
        rt.schedule(usecs(rng.uniform(1, 1000)),
                    [&, depth] { spawn(depth + 1); });
      }
    };
    for (int i = 0; i < 50; ++i) {
      rt.schedule(usecs(rng.uniform(0, 5000)), [&] { spawn(0); });
    }
    rt.run();
    return log;
  };
  EXPECT_EQ(run(3), run(3));
  EXPECT_NE(run(3), run(4));
}

// ---------- GPS CPU model fairness property sweep ----------

class CpuFairness : public ::testing::TestWithParam<int> {};

TEST_P(CpuFairness, EqualTasksFinishTogetherUnderAnyOvercommit) {
  int n = GetParam();
  SimRuntime rt;
  CpuModel cpu(rt, 4.0);
  std::vector<TimePoint> done(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    cpu.submit(1.0, 1.0, [&, i] { done[static_cast<std::size_t>(i)] = rt.now(); });
  }
  rt.run();
  for (int i = 1; i < n; ++i) {
    EXPECT_EQ(done[static_cast<std::size_t>(i)], done[0]);
  }
  // Work conservation: n tasks of 1 core-second on 4 cores.
  double expect = std::max(1.0, n / 4.0);
  EXPECT_NEAR(to_sec(done[0]), expect, 0.001);
}

INSTANTIATE_TEST_SUITE_P(Overcommit, CpuFairness,
                         ::testing::Values(1, 2, 4, 8, 16, 64));

}  // namespace
}  // namespace ilu
