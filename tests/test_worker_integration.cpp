// Integration tests: the full worker control plane replaying workloads,
// exercising cross-module behaviour (queue + regulator + pool + netns +
// backend + characteristics) that unit tests cannot reach.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/energy.hpp"
#include "core/worker.hpp"
#include "runtime/sim_runtime.hpp"
#include "trace/function_profile.hpp"
#include "trace/loadgen.hpp"

namespace ilu {
namespace {

WorkerConfig small_cfg() {
  WorkerConfig cfg;
  cfg.cores = 8;
  cfg.memory_mb = 4096;
  cfg.seed = 2024;
  return cfg;
}

InvokeFn invoker(Worker& w) {
  return [&w](FunctionId fn, std::function<void(const InvokeResult&)> cb) {
    w.invoke(fn, std::move(cb));
  };
}

TEST(WorkerIntegration, TraceReplayCompletesEverything) {
  SimRuntime rt;
  Worker w(rt, small_cfg());
  std::vector<SyntheticFunctionSpec> specs;
  for (auto& p : function_bench()) {
    if (p.name == "video_encoding") continue;
    specs.push_back({.profile = p, .mean_iat = secs(3), .exponential = true});
  }
  auto trace = make_synthetic_trace(specs, mins(3), 5);
  for (const auto& f : trace.functions) w.register_function(f);
  w.start();

  OpenLoopDriver d(rt, invoker(w));
  d.start(trace);
  while (!d.done()) rt.run_for(secs(10));
  w.shutdown();

  EXPECT_EQ(d.results().size(), trace.events.size());
  std::size_t ok = 0;
  for (const auto& r : d.results()) ok += r.success;
  EXPECT_EQ(ok, trace.events.size());
  EXPECT_EQ(w.completed(), trace.events.size());
  EXPECT_EQ(w.warm_starts() + w.cold_starts(), trace.events.size());
}

TEST(WorkerIntegration, WarmRateGrowsOverTime) {
  SimRuntime rt;
  Worker w(rt, small_cfg());
  auto fn = w.register_function(pyaes());
  w.start();
  // 3-s cadence: longer than the ~2 s first cold start, so after the first
  // container exists every invocation is warm.
  std::vector<SyntheticFunctionSpec> specs{
      {.profile = w.profile(fn), .mean_iat = secs(3), .exponential = false}};
  auto trace = make_synthetic_trace(specs, mins(3), 6);
  OpenLoopDriver d(rt, invoker(w));
  d.start(trace);
  while (!d.done()) rt.run_for(secs(10));
  w.shutdown();
  EXPECT_EQ(w.cold_starts(), 1u);
  EXPECT_EQ(w.warm_starts(), trace.events.size() - 1);
}

TEST(WorkerIntegration, HistPolicyOnWorkerExpiresAndServes) {
  WorkerConfig cfg = small_cfg();
  cfg.keepalive_policy = "HIST";
  SimRuntime rt;
  Worker w(rt, cfg);
  auto fn = w.register_function(pyaes());
  w.start();
  int done = 0, warm_late = 0;
  // 12-minute cadence: under TTL this would always be cold; HIST learns
  // the cadence and (via the worker's predictive-prewarm wiring) brings
  // containers back before the predicted arrivals.
  for (int i = 0; i < 10; ++i) {
    rt.schedule(mins(12.0 * i), [&, i] {
      w.invoke(fn, [&, i](const InvokeResult& r) {
        EXPECT_TRUE(r.success);
        ++done;
        if (i >= 6 && !r.cold) ++warm_late;
      });
    });
  }
  rt.run_for(mins(130));
  w.shutdown();
  EXPECT_EQ(done, 10);
  EXPECT_GT(w.prewarms(), 0u);
  EXPECT_GT(warm_late, 0);
}

TEST(WorkerIntegration, HistStopsPrewarmingAFunctionThatWentQuiet) {
  // Eight arrivals on a 10-minute cadence, then ten idle hours. HIST
  // prewarms once for the arrival it predicts; when that container expires
  // unused, nothing may ask for another one.
  WorkerConfig cfg = small_cfg();
  cfg.keepalive_policy = "HIST";
  SimRuntime rt;
  Worker w(rt, cfg);
  auto fn = w.register_function(pyaes());
  w.start();
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    rt.schedule(mins(10.0 * i), [&] {
      w.invoke(fn, [&](const InvokeResult&) { ++done; });
    });
  }
  rt.run_until(mins(70));  // the last arrival
  std::uint64_t before = w.prewarms();
  rt.run_for(mins(600));
  w.shutdown();
  EXPECT_EQ(done, 8);
  EXPECT_LE(w.prewarms() - before, 1u);
}

TEST(WorkerIntegration, EnergyMeterTracksWorkerLoad) {
  SimRuntime rt;
  Worker w(rt, small_cfg());
  EnergyMeter meter(8.0, {.idle_watts = 100.0, .max_watts = 260.0});
  w.cpu().set_demand_observer([&](TimePoint t, double d) {
    meter.on_demand_change(t, d);
  });
  auto fn = w.register_function(lookbusy(secs(2), 128, secs(1)));
  w.start();
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    w.invoke(fn, [&](const InvokeResult&) { ++done; });
  }
  rt.run_for(mins(1));
  w.shutdown();
  ASSERT_EQ(done, 4);
  double joules = meter.total_joules(mins(1));
  // Energy must exceed the idle floor (60 s x 100 W) by the active part.
  EXPECT_GT(joules, 6000.0);
  EXPECT_GT(meter.active_joules(mins(1)), 100.0);
  EXPECT_LT(joules, 260.0 * 60.0);
}

TEST(WorkerIntegration, SnapshotBackendCutsRepeatColdStarts) {
  WorkerConfig cfg = small_cfg();
  cfg.backend.snapshot_cold_starts = true;
  cfg.backend.snapshot_restore =
      LatencyModel::shifted(msecs(60), LatencyModel::zero());
  cfg.keepalive_policy = "TTL";
  SimRuntime rt;
  Worker w(rt, cfg);
  auto fn = w.register_function(pyaes());
  w.start();
  std::vector<double> cold_overheads;
  int done = 0;
  std::function<void(int)> loop = [&](int remaining) {
    if (remaining == 0) return;
    w.invoke(fn, [&, remaining](const InvokeResult& r) {
      if (r.cold) cold_overheads.push_back(to_ms(r.overhead()));
      ++done;
      // Force the next start cold.
      w.pool().set_capacity_mb(0);
      w.pool().set_capacity_mb(4096);
      loop(remaining - 1);
    });
  };
  loop(4);
  while (done < 4) rt.run_for(secs(30));
  w.shutdown();
  ASSERT_EQ(cold_overheads.size(), 4u);
  // First cold pays the full create; later ones restore from snapshot.
  EXPECT_GT(cold_overheads[0], 300.0);
  for (std::size_t i = 1; i < cold_overheads.size(); ++i) {
    EXPECT_LT(cold_overheads[i], 200.0);
  }
}

TEST(WorkerIntegration, ParkedInvocationsPreserveFairness) {
  WorkerConfig cfg = small_cfg();
  cfg.memory_mb = 600;  // one 512 MB container at a time
  SimRuntime rt;
  Worker w(rt, cfg);
  auto fn = w.register_function(function_bench_app("ml_inference"));
  w.start();
  std::vector<int> completion_order;
  for (int i = 0; i < 4; ++i) {
    w.invoke(fn, [&, i](const InvokeResult& r) {
      EXPECT_TRUE(r.success);
      completion_order.push_back(i);
    });
  }
  rt.run_for(mins(10));
  w.shutdown();
  ASSERT_EQ(completion_order.size(), 4u);
  // All serialize through the single container; the first dispatch wins the
  // container, the rest drain through the memory-parking path (their
  // relative order depends on per-invocation span jitter).
  EXPECT_EQ(completion_order[0], 0);
  auto sorted = completion_order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3}));
}

TEST(WorkerIntegration, InvokeFailureInjection) {
  WorkerConfig cfg = small_cfg();
  cfg.faults.invoke_failure_prob = 0.3;
  SimRuntime rt;
  Worker w(rt, cfg);
  auto fn = w.register_function(pyaes());
  w.start();
  int ok = 0, failed = 0, done = 0;
  std::function<void(int)> loop = [&](int remaining) {
    if (remaining == 0) return;
    w.invoke(fn, [&, remaining](const InvokeResult& r) {
      (r.success ? ok : failed)++;
      ++done;
      loop(remaining - 1);
    });
  };
  loop(100);
  while (done < 100) rt.run_for(secs(30));
  w.shutdown();
  EXPECT_EQ(ok + failed, 100);
  EXPECT_GT(failed, 10);
  EXPECT_GT(ok, 40);
  EXPECT_EQ(w.failures(), static_cast<std::uint64_t>(failed));
}

TEST(WorkerIntegration, AimdRegulatorAdaptsLimit) {
  WorkerConfig cfg = small_cfg();
  cfg.regulator.limit = 4;
  cfg.regulator.dynamic = true;
  cfg.regulator.interval = secs(1);
  cfg.regulator.max_limit = 64;
  SimRuntime rt;
  Worker w(rt, cfg);
  auto fn = w.register_function(lookbusy(msecs(200), 64, msecs(300)));
  w.start();
  // Light load: the limit should climb from 4 via additive increase.
  ClosedLoopDriver d(rt, invoker(w), fn, 2);
  d.start(200);
  while (!d.done()) rt.run_for(secs(5));
  EXPECT_GT(w.status().concurrency_limit, 10.0);
  w.shutdown();
}

/// Queue-policy sweep at the integration level: every discipline completes
/// the same workload with the same total count, deterministically.
class QueuePolicyIntegration : public ::testing::TestWithParam<const char*> {};

TEST_P(QueuePolicyIntegration, CompletesHeterogeneousWorkload) {
  WorkerConfig cfg = small_cfg();
  cfg.queue_policy = GetParam();
  cfg.regulator.limit = 4;
  SimRuntime rt;
  Worker w(rt, cfg);
  std::vector<SyntheticFunctionSpec> specs{
      {.profile = lookbusy(msecs(100), 64, msecs(200)),
       .mean_iat = msecs(400), .exponential = true},
      {.profile = lookbusy(secs(2), 128, secs(1)),
       .mean_iat = secs(3), .exponential = true},
  };
  auto trace = make_synthetic_trace(specs, mins(2), 8);
  for (const auto& f : trace.functions) w.register_function(f);
  w.start();
  OpenLoopDriver d(rt, invoker(w));
  d.start(trace);
  while (!d.done()) rt.run_for(secs(10));
  w.shutdown();
  EXPECT_EQ(d.results().size(), trace.events.size());
  for (const auto& r : d.results()) EXPECT_TRUE(r.success);
}

INSTANTIATE_TEST_SUITE_P(AllDisciplines, QueuePolicyIntegration,
                         ::testing::Values("FCFS", "SJF", "EEDF", "RARE"));

/// Keep-alive policy sweep at the worker level.
class KeepAliveIntegration : public ::testing::TestWithParam<const char*> {};

TEST_P(KeepAliveIntegration, PoolInvariantsHoldUnderChurn) {
  WorkerConfig cfg = small_cfg();
  cfg.keepalive_policy = GetParam();
  cfg.memory_mb = 1024;  // heavy eviction churn
  SimRuntime rt;
  Worker w(rt, cfg);
  std::vector<SyntheticFunctionSpec> specs;
  for (int i = 0; i < 8; ++i) {
    auto p = lookbusy(msecs(150), 192, msecs(400));
    p.name = "churn_" + std::to_string(i);
    specs.push_back(
        {.profile = p, .mean_iat = msecs(900), .exponential = true});
  }
  auto trace = make_synthetic_trace(specs, mins(2), 9);
  for (const auto& f : trace.functions) w.register_function(f);
  w.start();
  OpenLoopDriver d(rt, invoker(w));
  d.start(trace);
  while (!d.done()) {
    rt.run_for(secs(5));
    EXPECT_LE(w.pool().used_mb(), 1024u) << GetParam();
  }
  w.shutdown();
  EXPECT_EQ(d.results().size(), trace.events.size());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, KeepAliveIntegration,
                         ::testing::Values("TTL", "LRU", "FREQ", "GD", "LND",
                                           "HIST"));

}  // namespace
}  // namespace ilu
