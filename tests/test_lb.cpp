#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>

#include "lb/chbl.hpp"
#include "lb/cluster.hpp"
#include "runtime/sim_runtime.hpp"
#include "trace/function_profile.hpp"
#include "util/rng.hpp"

namespace ilu {
namespace {

/// Reference walk: every distinct worker in ring order starting at the
/// key's point, found by walking the whole ring once. ChblBalancer::pick
/// must return the first of these within the bound.
std::vector<std::size_t> candidates(const ConsistentHashRing& ring,
                                    std::uint64_t key_hash) {
  const auto& points = ring.points();
  std::vector<std::size_t> out;
  if (points.empty()) return out;
  auto it = std::lower_bound(
      points.begin(), points.end(), key_hash,
      [](const ConsistentHashRing::Point& p, std::uint64_t h) {
        return p.at < h;
      });
  for (std::size_t steps = 0;
       steps < points.size() && out.size() < ring.num_workers();
       ++steps, ++it) {
    if (it == points.end()) it = points.begin();
    if (std::find(out.begin(), out.end(), it->worker) == out.end()) {
      out.push_back(it->worker);
    }
  }
  return out;
}

std::vector<std::size_t> candidates(const ConsistentHashRing& ring,
                                    std::string_view key) {
  return candidates(ring, ConsistentHashRing::hash_key(key));
}

TEST(ConsistentHashRing, CandidatesCoverAllWorkersOnce) {
  ConsistentHashRing ring(32);
  for (std::size_t i = 0; i < 5; ++i) ring.add_worker(i);
  auto cands = candidates(ring, "some_function");
  EXPECT_EQ(cands.size(), 5u);
  std::set<std::size_t> uniq(cands.begin(), cands.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(ConsistentHashRing, StableForSameKey) {
  ConsistentHashRing ring(32);
  for (std::size_t i = 0; i < 4; ++i) ring.add_worker(i);
  EXPECT_EQ(candidates(ring, "fn_a"), candidates(ring, "fn_a"));
}

TEST(ConsistentHashRing, DifferentKeysSpreadAcrossWorkers) {
  ConsistentHashRing ring(64);
  for (std::size_t i = 0; i < 4; ++i) ring.add_worker(i);
  std::set<std::size_t> homes;
  for (int k = 0; k < 100; ++k) {
    homes.insert(candidates(ring, "fn_" + std::to_string(k)).front());
  }
  EXPECT_EQ(homes.size(), 4u);
}

TEST(ChblBalancer, PicksHomeWorkerWhenUnderBound) {
  ChblBalancer lb(4);
  std::vector<double> loads{1.0, 1.0, 1.0, 1.0};
  std::size_t home = lb.pick("fn_x", loads);
  // All equal load: home worker chosen, no forwarding.
  EXPECT_EQ(lb.last_hops(), 0u);
  EXPECT_LT(home, 4u);
}

TEST(ChblBalancer, ForwardsWhenHomeOverloaded) {
  ChblBalancer lb(4, ChblBalancer::Config{.bound_factor = 1.5});
  std::vector<double> loads{1.0, 1.0, 1.0, 1.0};
  std::size_t home = lb.pick("fn_x", loads);
  loads[home] = 100.0;  // overload the home
  std::size_t next = lb.pick("fn_x", loads);
  EXPECT_NE(next, home);
  EXPECT_GE(lb.last_hops(), 1u);
}

TEST(ChblBalancer, FallsBackToLeastLoadedWhenAllOver) {
  ChblBalancer lb(3, ChblBalancer::Config{.bound_factor = 0.001});
  std::vector<double> loads{50.0, 10.0, 90.0};
  EXPECT_EQ(lb.pick("fn_y", loads), 1u);
}

TEST(ChblBalancer, BoundedLoadInvariantUnderStream) {
  // Property: after routing a stream with CH-BL where each assignment adds
  // load 1, no worker's load exceeds bound*avg + 1 at assignment time
  // (unless everyone is over).
  ChblBalancer lb(8, ChblBalancer::Config{.bound_factor = 1.25});
  std::vector<double> loads(8, 0.0);
  for (int k = 0; k < 2000; ++k) {
    std::string key = "fn_" + std::to_string(k % 37);
    double avg = 0.0;
    for (double l : loads) avg += l;
    avg = std::max(1.0, avg / 8.0);
    std::size_t w = lb.pick(key, loads);
    EXPECT_LE(loads[w], 1.25 * avg + 1e-9);
    loads[w] += 1.0;
    // Decay to emulate completions.
    for (double& l : loads) l *= 0.995;
  }
}

TEST(ChblBalancer, PickMatchesReferenceWalk) {
  // Property: for random keys and integer loads, pick returns the first
  // under-bound worker of the full reference walk and reports its index
  // as the hop count; with everyone over the bound it falls back to the
  // least-loaded worker after visiting all of them.
  Rng rng(7);
  for (std::size_t workers : {1u, 2u, 3u, 16u, 64u, 1024u}) {
    ConsistentHashRing ring(64);
    for (std::size_t w = 0; w < workers; ++w) ring.add_worker(w);
    const int trials = workers >= 1024 ? 12 : 300;
    for (double factor : {0.5, 1.0, 1.25, 2.0}) {
      ChblBalancer lb(workers, ChblBalancer::Config{.bound_factor = factor});
      for (int t = 0; t < trials; ++t) {
        const std::uint64_t key = rng.next_u64();
        const std::uint64_t max_load = 1 + rng.uniform_index(12);
        std::vector<double> loads(workers);
        double sum = 0.0;
        for (double& l : loads) {
          l = static_cast<double>(rng.uniform_index(max_load + 1));
          sum += l;
        }
        const double bound =
            factor * std::max(1.0, sum / static_cast<double>(workers));
        const std::vector<std::size_t> cands = candidates(ring, key);
        ASSERT_EQ(cands.size(), workers);
        const std::size_t got = lb.pick(key, loads, sum);
        auto first =
            std::find_if(cands.begin(), cands.end(),
                         [&](std::size_t w) { return loads[w] <= bound; });
        if (first != cands.end()) {
          EXPECT_EQ(got, *first) << workers << " workers, trial " << t;
          EXPECT_EQ(lb.last_hops(),
                    static_cast<std::size_t>(first - cands.begin()));
        } else {
          const auto least = std::min_element(loads.begin(), loads.end());
          EXPECT_EQ(got, static_cast<std::size_t>(least - loads.begin()));
          EXPECT_EQ(lb.last_hops(), workers);
        }
      }
    }
    // Everyone over the bound: loads in [10, 20] against half the average.
    ChblBalancer tight(workers, ChblBalancer::Config{.bound_factor = 0.5});
    std::vector<double> loads(workers);
    for (double& l : loads) {
      l = 10.0 + static_cast<double>(rng.uniform_index(11));
    }
    const std::size_t got = tight.pick("fn_over", loads);
    EXPECT_EQ(got, static_cast<std::size_t>(
                       std::min_element(loads.begin(), loads.end()) -
                       loads.begin()));
    EXPECT_EQ(tight.last_hops(), workers);
  }
}

TEST(ChblBalancer, StringKeyPickHashesTheKey) {
  ChblBalancer by_name(16);
  ChblBalancer by_hash(16);
  std::vector<double> loads(16, 0.0);
  Rng rng(3);
  for (int k = 0; k < 200; ++k) {
    for (double& l : loads) l = static_cast<double>(rng.uniform_index(6));
    double sum = 0.0;
    for (double l : loads) sum += l;
    const std::string key = "fn_" + std::to_string(k);
    EXPECT_EQ(by_name.pick(key, loads),
              by_hash.pick(ConsistentHashRing::hash_key(key), loads, sum));
    EXPECT_EQ(by_name.last_hops(), by_hash.last_hops());
  }
}

TEST(Cluster, RoutesAndCompletesInvocations) {
  SimRuntime rt;
  ClusterConfig cfg;
  cfg.num_workers = 3;
  cfg.worker.cores = 4;
  cfg.worker.memory_mb = 2048;
  Cluster cluster(rt, cfg);
  auto fn = cluster.register_function(pyaes());
  cluster.start();
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    cluster.invoke(fn, [&](const InvokeResult& r) {
      EXPECT_TRUE(r.success);
      ++done;
    });
  }
  rt.run_for(mins(2));
  cluster.shutdown();
  EXPECT_EQ(done, 10);
}

TEST(Cluster, IdleClusterProcessesNoEvents) {
  // No worker has anything to sweep: a started idle 16-worker cluster
  // schedules nothing. Once invocations finish, nothing stays scheduled.
  SimRuntime rt;
  ClusterConfig cfg;
  cfg.num_workers = 16;
  Cluster cluster(rt, cfg);
  auto fn = cluster.register_function(pyaes());
  cluster.start();
  rt.run_for(mins(60));
  EXPECT_EQ(rt.events_processed(), 0u);
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    cluster.invoke(fn, [&](const InvokeResult&) { ++done; });
  }
  rt.run_for(mins(10));
  EXPECT_EQ(done, 10);
  EXPECT_EQ(rt.pending(), 0u);
  cluster.shutdown();
}

TEST(Cluster, ChblKeepsFunctionLocality) {
  SimRuntime rt;
  ClusterConfig cfg;
  cfg.num_workers = 4;
  cfg.worker.cores = 8;
  cfg.lb = LbPolicy::ChBl;
  Cluster cluster(rt, cfg);
  auto fn = cluster.register_function(pyaes());
  cluster.start();
  // Sequential invocations (low load): all should go to the home worker,
  // maximizing warm starts.
  int done = 0;
  std::function<void(int)> chain = [&](int remaining) {
    if (remaining == 0) return;
    cluster.invoke(fn, [&, remaining](const InvokeResult&) {
      ++done;
      chain(remaining - 1);
    });
  };
  chain(12);
  rt.run_for(mins(5));
  cluster.shutdown();
  EXPECT_EQ(done, 12);
  // Exactly one worker got everything.
  int active_workers = 0;
  for (auto c : cluster.routed()) {
    if (c > 0) ++active_workers;
  }
  EXPECT_EQ(active_workers, 1);
  EXPECT_EQ(cluster.forwarded(), 0u);
  // Locality means exactly one cold start across 12 invocations.
  std::uint64_t cold = 0;
  for (std::size_t i = 0; i < cluster.num_workers(); ++i) {
    cold += cluster.worker(i).cold_starts();
  }
  EXPECT_EQ(cold, 1u);
}

TEST(Cluster, RoundRobinSpreadsLoad) {
  SimRuntime rt;
  ClusterConfig cfg;
  cfg.num_workers = 4;
  cfg.lb = LbPolicy::RoundRobin;
  Cluster cluster(rt, cfg);
  auto fn = cluster.register_function(pyaes());
  cluster.start();
  for (int i = 0; i < 8; ++i) {
    cluster.invoke(fn, [](const InvokeResult&) {});
  }
  rt.run_for(mins(1));
  cluster.shutdown();
  for (auto c : cluster.routed()) EXPECT_EQ(c, 2u);
}

TEST(Cluster, LeastLoadedAvoidsBusyWorker) {
  SimRuntime rt;
  ClusterConfig cfg;
  cfg.num_workers = 2;
  cfg.lb = LbPolicy::LeastLoaded;
  cfg.worker.cores = 2;
  Cluster cluster(rt, cfg);
  auto fn = cluster.register_function(
      lookbusy(secs(30), 128, secs(1)));  // long-running
  cluster.start();
  for (int i = 0; i < 4; ++i) {
    cluster.invoke(fn, [](const InvokeResult&) {});
    rt.run_for(secs(1));
  }
  rt.run_for(secs(5));
  // Invocations alternate between the two workers.
  EXPECT_EQ(cluster.routed()[0], 2u);
  EXPECT_EQ(cluster.routed()[1], 2u);
  cluster.shutdown();
}

TEST(Cluster, FunctionIdsComeFromTheOneTable) {
  SimRuntime rt;
  ClusterConfig cfg;
  cfg.num_workers = 3;
  Cluster cluster(rt, cfg);
  FunctionProfile a = pyaes();
  FunctionProfile b = lookbusy(secs(1), 256, secs(2));
  EXPECT_EQ(cluster.register_function(a), 0u);
  EXPECT_EQ(cluster.register_function(b), 1u);
  ASSERT_EQ(cluster.functions().size(), 2u);
  for (std::size_t i = 0; i < cluster.num_workers(); ++i) {
    const Worker& w = cluster.worker(i);
    EXPECT_EQ(w.num_functions(), 2u);
    // Every worker reads the cluster's table itself, not a copy of it.
    EXPECT_EQ(&w.profile(0), &cluster.functions()[0]);
    EXPECT_EQ(&w.profile(1), &cluster.functions()[1]);
    EXPECT_EQ(w.profile(1).mem_mb, 256u);
    // Registration created no per-function state on any worker.
    EXPECT_EQ(w.characteristics().tracked(), 0u);
  }
}

TEST(Cluster, RegisteringOnAClusterWorkerIsRefused) {
  SimRuntime rt;
  ClusterConfig cfg;
  cfg.num_workers = 2;
  Cluster cluster(rt, cfg);
  cluster.register_function(pyaes());
  EXPECT_THROW(cluster.worker(1).register_function(pyaes()),
               std::logic_error);
  EXPECT_EQ(cluster.functions().size(), 1u);
  EXPECT_EQ(cluster.worker(0).num_functions(), 1u);
}

TEST(Cluster, CharacteristicsExistOnlyWhereAFunctionRan) {
  SimRuntime rt;
  ClusterConfig cfg;
  cfg.num_workers = 4;
  Cluster cluster(rt, cfg);
  for (int i = 0; i < 50; ++i) {
    FunctionProfile p = pyaes();
    p.name = "fn_" + std::to_string(i);
    cluster.register_function(p);
  }
  cluster.start();
  int done = 0;
  cluster.invoke(7, [&](const InvokeResult& r) {
    EXPECT_TRUE(r.success);
    ++done;
  });
  rt.run_for(mins(1));
  cluster.shutdown();
  ASSERT_EQ(done, 1);
  std::size_t tracked = 0;
  for (std::size_t i = 0; i < cluster.num_workers(); ++i) {
    const Worker& w = cluster.worker(i);
    tracked += w.characteristics().tracked();
    if (cluster.routed()[i] > 0) {
      EXPECT_EQ(w.characteristics().arrivals(7), 1u);
    }
  }
  EXPECT_EQ(tracked, 1u);
}

/// This process's resident set size in bytes, or -1 when /proc is absent.
std::int64_t vm_rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stoll(line.substr(6)) * 1024;
    }
  }
  return -1;
}

// The registration memory gate (DESIGN.md §21): workers keep per-function
// state only for the functions they run, so registering on a 16-worker
// cluster costs the one shared table plus the CH-BL key hashes, whatever
// the worker count.
TEST(Cluster, RegistrationMemoryGate) {
  constexpr std::size_t kWorkers = 16;
  SimRuntime rt;
  ClusterConfig cfg;
  cfg.num_workers = kWorkers;
  Cluster cluster(rt, cfg);
  const std::int64_t before = vm_rss_bytes();
  if (before < 0) GTEST_SKIP() << "no /proc/self/status on this host";
  FunctionProfile p = pyaes();
  std::size_t registered = 0;
  auto register_up_to = [&](std::size_t n) {
    for (; registered < n; ++registered) {
      p.name = "fn_" + std::to_string(registered);
      cluster.register_function(p);
    }
  };

  constexpr std::size_t kFirst = 20'000;
  register_up_to(kFirst);
  const double per_fn_worker =
      static_cast<double>(vm_rss_bytes() - before) /
      static_cast<double>(kFirst * kWorkers);
  // ASSERT, not EXPECT: at ~1.5 KB per function per worker the next stage
  // would need ~25 GB.
  ASSERT_LE(per_fn_worker, 64.0)
      << "registering " << kFirst << " functions on " << kWorkers
      << " workers grew RSS by " << per_fn_worker
      << " B per function per worker";

  constexpr std::size_t kAll = 1'000'000;
  register_up_to(kAll);
  const std::int64_t growth = vm_rss_bytes() - before;
  EXPECT_LE(growth, std::int64_t{1} << 30)
      << "registering " << kAll << " functions on " << kWorkers
      << " workers grew RSS by " << growth / (1 << 20) << " MB";
  EXPECT_EQ(cluster.functions().size(), kAll);
}

}  // namespace
}  // namespace ilu
