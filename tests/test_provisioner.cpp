#include "keepalive/provisioner.hpp"

#include <gtest/gtest.h>

#include "core/worker.hpp"
#include "keepalive/policy.hpp"
#include "runtime/sim_runtime.hpp"
#include "trace/azure.hpp"
#include "trace/function_profile.hpp"
#include "trace/loadgen.hpp"

namespace ilu {
namespace {

TEST(Provisioner, GrowsUnderMissPressure) {
  SimRuntime rt;
  LruPolicy policy;
  ContainerPool pool(rt, policy, {.capacity_mb = 2048}, nullptr);
  ProvisionerConfig cfg;
  cfg.initial_capacity_mb = 2048;
  cfg.target_miss_rate = 0.001;
  cfg.interval = mins(1);
  cfg.window = mins(5);
  Provisioner prov(pool, cfg);
  // 1 miss per second — far above target.
  for (int i = 0; i < 600; ++i) prov.record_miss(secs(i));
  prov.maybe_adjust(secs(600));
  EXPECT_GT(pool.capacity_mb(), 2048u);
}

TEST(Provisioner, ShrinksWhenMissesAreRare) {
  SimRuntime rt;
  LruPolicy policy;
  ContainerPool pool(rt, policy, {.capacity_mb = 8192}, nullptr);
  ProvisionerConfig cfg;
  cfg.initial_capacity_mb = 8192;
  cfg.target_miss_rate = 0.1;
  cfg.interval = mins(1);
  Provisioner prov(pool, cfg);
  // No misses at all.
  prov.maybe_adjust(mins(30));
  EXPECT_LT(pool.capacity_mb(), 8192u);
}

TEST(Provisioner, DeadbandPreventsSmallAdjustments) {
  SimRuntime rt;
  LruPolicy policy;
  ContainerPool pool(rt, policy, {.capacity_mb = 4096}, nullptr);
  ProvisionerConfig cfg;
  cfg.initial_capacity_mb = 4096;
  cfg.target_miss_rate = 0.01;  // = 0.6 misses/min
  cfg.error_tolerance = 0.5;
  // Evaluate only once a full window of data exists, so the measured rate
  // is the steady 0.0117/s (inside the 50% deadband).
  cfg.interval = mins(10);
  cfg.window = mins(10);
  Provisioner prov(pool, cfg);
  for (int i = 0; i < 7; ++i) prov.record_miss(mins(10.0 * i / 7.0));
  prov.maybe_adjust(mins(10));
  for (const auto& s : prov.samples()) EXPECT_FALSE(s.resized);
  EXPECT_EQ(pool.capacity_mb(), 4096u);
}

TEST(Provisioner, RespectsMinMaxClamp) {
  SimRuntime rt;
  LruPolicy policy;
  ContainerPool pool(rt, policy, {.capacity_mb = 2048}, nullptr);
  ProvisionerConfig cfg;
  cfg.initial_capacity_mb = 2048;
  cfg.min_capacity_mb = 1024;
  cfg.max_capacity_mb = 4096;
  cfg.target_miss_rate = 1000.0;  // never reached -> always shrink
  cfg.interval = mins(1);
  Provisioner prov(pool, cfg);
  prov.maybe_adjust(mins(600));
  EXPECT_EQ(pool.capacity_mb(), 1024u);
}

TEST(Provisioner, SamplesRecordTimeseries) {
  SimRuntime rt;
  LruPolicy policy;
  ContainerPool pool(rt, policy, {.capacity_mb = 2048}, nullptr);
  ProvisionerConfig cfg;
  cfg.interval = mins(2);
  cfg.initial_capacity_mb = 2048;
  Provisioner prov(pool, cfg);
  prov.maybe_adjust(mins(10));
  EXPECT_EQ(prov.samples().size(), 5u);
  EXPECT_EQ(prov.samples()[0].at, mins(2));
  EXPECT_EQ(prov.samples()[4].at, mins(10));
}

TEST(DynamicProvisioning, EndToEndReducesAverageCapacity) {
  AzureModelConfig mcfg;
  mcfg.population = 600;
  mcfg.days = 0.15;
  mcfg.seed = 17;
  AzureTraceModel model(mcfg);
  auto trace = model.sample_representative(60, /*target_rps=*/3.0);

  ProvisionerConfig cfg;
  cfg.initial_capacity_mb = 10000;
  cfg.target_miss_rate = 0.01;
  auto r = run_dynamic_provisioning(trace, "GD", cfg);
  EXPECT_FALSE(r.timeseries.empty());
  EXPECT_EQ(r.static_capacity_mb, 10000u);
  // The controller should not sit at the static size the whole time.
  EXPECT_NE(r.average_capacity_mb, 10000.0);
  EXPECT_GT(r.stats.invocations, 0u);
}

TEST(Provisioner, DrivesLiveWorkerPool) {
  // The controller can resize a *live worker's* container pool, not just
  // a trace replay's: vertical scaling on the full control plane.
  SimRuntime rt;
  WorkerConfig wcfg;
  wcfg.cores = 8;
  wcfg.memory_mb = 8192;
  Worker w(rt, wcfg);
  auto fn = w.register_function(pyaes());
  w.start();

  ProvisionerConfig cfg;
  cfg.initial_capacity_mb = 8192;
  cfg.target_miss_rate = 10.0;  // unreachable -> controller shrinks
  cfg.interval = mins(1);
  cfg.min_capacity_mb = 512;
  Provisioner prov(w.pool(), cfg);
  EXPECT_EQ(w.pool().capacity_mb(), 8192u);

  bool done = false;
  w.invoke(fn, [&](const InvokeResult&) { done = true; });
  rt.run_for(mins(1));
  ASSERT_TRUE(done);
  prov.maybe_adjust(mins(30));
  EXPECT_LT(w.pool().capacity_mb(), 8192u);
  // The worker keeps functioning at the reduced size.
  done = false;
  w.invoke(fn, [&](const InvokeResult& r) {
    done = true;
    EXPECT_TRUE(r.success);
  });
  rt.run_for(mins(1));
  EXPECT_TRUE(done);
  w.shutdown();
}

TEST(DynamicProvisioning, MissRateTracksTowardTarget) {
  // Steady periodic workload: controller should settle the miss speed near
  // target rather than at extremes.
  std::vector<SyntheticFunctionSpec> specs;
  for (int i = 0; i < 40; ++i) {
    specs.push_back({.profile = lookbusy(secs(1), 150, secs(2)),
                     .mean_iat = mins(11),
                     .exponential = false,
                     .phase = secs(i * 15.0)});
  }
  auto trace = make_synthetic_trace(specs, mins(360));
  ProvisionerConfig cfg;
  cfg.initial_capacity_mb = 10000;
  cfg.target_miss_rate = 0.003;
  cfg.min_capacity_mb = 512;
  auto r = run_dynamic_provisioning(trace, "GD", cfg);
  // Average miss rate over the second half of the run.
  double avg = 0.0;
  std::size_t n = 0;
  for (std::size_t i = r.timeseries.size() / 2; i < r.timeseries.size();
       ++i) {
    avg += r.timeseries[i].miss_rate;
    ++n;
  }
  avg /= static_cast<double>(n);
  EXPECT_LT(avg, 0.05);  // nowhere near uncontrolled cold-start storms
}

}  // namespace
}  // namespace ilu
