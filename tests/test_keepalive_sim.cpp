#include "keepalive/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "exp/sweep.hpp"
#include "trace/azure.hpp"
#include "trace/function_profile.hpp"
#include "trace/loadgen.hpp"

namespace ilu {
namespace {

Trace small_azure_trace() {
  AzureModelConfig cfg;
  cfg.population = 800;
  cfg.days = 0.25;  // 6 hours
  cfg.seed = 5;
  AzureTraceModel model(cfg);
  // Natural rates: force-scaling a small sample to a high request rate
  // makes same-function spawn starts dominate and masks policy behaviour.
  return model.sample_representative(80);
}

TEST(KeepAliveSim, RunsAndAccountsAllInvocations) {
  auto trace = small_azure_trace();
  auto r = run_keepalive_sim(trace, "LRU", 8 * 1024);
  EXPECT_EQ(r.stats.invocations, trace.events.size());
  EXPECT_EQ(r.stats.warm_starts + r.stats.cold_starts + r.stats.dropped,
            trace.events.size());
}

TEST(KeepAliveSim, LargerCacheNeverHurtsLru) {
  auto trace = small_azure_trace();
  auto small = run_keepalive_sim(trace, "LRU", 2 * 1024);
  auto large = run_keepalive_sim(trace, "LRU", 32 * 1024);
  EXPECT_LE(large.cold_fraction(), small.cold_fraction() + 1e-9);
}

TEST(KeepAliveSim, WorkConservingBeatsTtlAtLargeCache) {
  // With ample memory, TTL still expires rarely-used containers and eats
  // cold starts that LRU/GD avoid — the paper's core claim.
  auto trace = small_azure_trace();
  std::uint64_t cache_mb = 48 * 1024;
  auto ttl = run_keepalive_sim(trace, "TTL", cache_mb);
  auto lru = run_keepalive_sim(trace, "LRU", cache_mb);
  auto gd = run_keepalive_sim(trace, "GD", cache_mb);
  EXPECT_LT(lru.cold_fraction(), ttl.cold_fraction());
  EXPECT_LT(gd.cold_fraction(), ttl.cold_fraction());
}

TEST(KeepAliveSim, AllPoliciesRunOnSameTrace) {
  auto trace = small_azure_trace();
  for (const char* p : {"TTL", "LRU", "FREQ", "GD", "LND", "HIST"}) {
    auto r = run_keepalive_sim(trace, p, 8 * 1024);
    EXPECT_EQ(r.policy, p);
    EXPECT_GT(r.stats.invocations, 0u) << p;
    EXPECT_GE(r.cold_fraction(), 0.0) << p;
    EXPECT_LE(r.cold_fraction(), 1.0) << p;
  }
}

TEST(KeepAliveSim, SweepIsMonotoneInCapacityForGd) {
  auto trace = small_azure_trace();
  std::vector<std::function<KeepAliveSimResult()>> tasks;
  for (std::uint64_t mb : {1024, 4096, 16384, 65536}) {
    tasks.emplace_back(
        [&trace, mb] { return run_keepalive_sim(trace, "GD", mb); });
  }
  auto rs = exp::SweepRunner({.threads = 1}).run(tasks);
  ASSERT_EQ(rs.size(), 4u);
  // Not strictly monotone in theory (Belady anomalies), but over a 64x
  // range the trend must be clearly downward.
  EXPECT_LT(rs[3].exec_increase_pct(), rs[0].exec_increase_pct() + 1e-9);
}

TEST(KeepAliveSim, ZeroCapacityDropsEverything) {
  Trace t;
  t.functions = {lookbusy(secs(1), 100, secs(1))};
  t.duration = secs(10);
  t.events = {{secs(0), 0}, {secs(5), 0}};
  auto r = run_keepalive_sim(t, "LRU", 10);  // 10 MB < 100 MB
  EXPECT_EQ(r.stats.dropped, 2u);
}

TEST(KeepAliveSim, DeterministicAcrossRuns) {
  auto trace = small_azure_trace();
  auto a = run_keepalive_sim(trace, "GD", 4 * 1024);
  auto b = run_keepalive_sim(trace, "GD", 4 * 1024);
  EXPECT_EQ(a.stats.cold_starts, b.stats.cold_starts);
  EXPECT_EQ(a.stats.evictions, b.stats.evictions);
  EXPECT_EQ(a.stats.total_init_paid, b.stats.total_init_paid);
}

TEST(KeepAliveSim, HistBeatsTtlOnRegularWorkload) {
  // A workload of strictly periodic functions is HIST's best case: its
  // predictions are perfect, so it should at least match TTL.
  std::vector<SyntheticFunctionSpec> specs;
  for (int i = 0; i < 20; ++i) {
    specs.push_back({.profile = lookbusy(secs(1), 200, secs(3)),
                     .mean_iat = mins(12 + i),  // beyond the 10-min TTL
                     .exponential = false});
  }
  auto trace = make_synthetic_trace(specs, mins(240));
  auto ttl = run_keepalive_sim(trace, "TTL", 2 * 1024);
  auto hist = run_keepalive_sim(trace, "HIST", 2 * 1024);
  EXPECT_LT(hist.cold_fraction(), ttl.cold_fraction());
}

/// Property sweep: every policy, several capacities — invariants hold.
/// The policy is a std::string, not a const char*: gtest prints the param
/// into the discovered ctest name, and a pointer would print its load
/// address, which changes with every run.
class PolicyCapacitySweep
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(PolicyCapacitySweep, InvariantsHold) {
  auto [policy, cap_mb] = GetParam();
  auto trace = small_azure_trace();
  auto r = run_keepalive_sim(trace, policy, cap_mb);
  EXPECT_EQ(r.stats.warm_starts + r.stats.cold_starts + r.stats.dropped,
            r.stats.invocations);
  EXPECT_GE(r.stats.total_init_paid, Duration::zero());
  // Paid init can never exceed cold_starts x max init.
  EXPECT_LE(r.stats.total_init_paid,
            Duration{static_cast<std::int64_t>(r.stats.cold_starts) *
                     secs(240).count()});
  EXPECT_GE(r.exec_increase_pct(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesAllSizes, PolicyCapacitySweep,
    ::testing::Combine(
        ::testing::Values("TTL", "LRU", "FREQ", "GD", "LND", "HIST"),
        ::testing::Values(512u, 4096u, 32768u)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param)) + "mb";
    });

}  // namespace
}  // namespace ilu
