// End-to-end determinism of the time-parallel cluster: with a fixed seed,
// the sharded simulation must produce a byte-identical ExperimentReport to
// the serial (1-shard) run at ANY shard count — the ISSUE's hard
// requirement for trusting parallel results.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lb/cluster.hpp"
#include "metrics/report.hpp"
#include "obs/flight.hpp"
#include "trace/azure.hpp"
#include "trace/loadgen.hpp"

namespace ilu {
namespace {

Trace small_cluster_trace() {
  AzureModelConfig cfg;
  cfg.population = 1500;
  cfg.days = 0.05;
  cfg.seed = 77;
  // Short functions keep the test fast.
  cfg.dur_median_s = 0.3;
  cfg.dur_sigma = 1.2;
  cfg.max_dur_s = 5.0;
  cfg.min_init_s = 0.05;
  cfg.max_init_s = 2.0;
  AzureTraceModel model(cfg);
  return model.sample_random(40, /*target_rps=*/3.0);
}

struct RunResult {
  std::string report_json;
  std::vector<std::uint64_t> routed;
  std::uint64_t forwarded = 0;
  std::uint64_t warm = 0;
  std::uint64_t cold = 0;
  std::uint64_t windows = 0;
};

RunResult run_cluster(std::size_t shards, const Trace& trace,
                      LbPolicy lb, Duration slice = secs(30)) {
  ClusterConfig cfg;
  cfg.num_workers = 4;
  cfg.lb = lb;
  cfg.worker.cores = 8;
  cfg.worker.memory_mb = 8 * 1024;

  ShardedRuntime srt(shards, cfg.rpc.lower_bound());
  Cluster cluster(srt, cfg);
  for (const auto& f : trace.functions) cluster.register_function(f);
  cluster.start();

  OpenLoopDriver d(srt.shard(0),
                   [&](FunctionId fn,
                       std::function<void(const InvokeResult&)> cb) {
                     cluster.invoke(fn, std::move(cb));
                   });
  d.start(trace);
  while (!d.done()) srt.run_for(slice);
  cluster.shutdown();

  std::vector<std::string> names;
  for (const auto& f : trace.functions) names.push_back(f.name);
  ExperimentReport rep(std::move(names));
  rep.add_all(d.results());

  RunResult out;
  out.report_json = rep.to_json().dump();
  out.routed = cluster.routed();
  out.forwarded = cluster.forwarded();
  for (std::size_t i = 0; i < cluster.num_workers(); ++i) {
    out.warm += cluster.worker(i).warm_starts();
    out.cold += cluster.worker(i).cold_starts();
  }
  out.windows = srt.windows();
  return out;
}

TEST(ShardedCluster, ReportsByteIdenticalAtAnyShardCount) {
  auto trace = small_cluster_trace();
  auto serial = run_cluster(1, trace, LbPolicy::ChBl);
  ASSERT_FALSE(serial.report_json.empty());
  EXPECT_EQ(serial.windows, 0u);  // 1 shard takes the fast path

  for (std::size_t shards : {2u, 4u}) {
    auto sharded = run_cluster(shards, trace, LbPolicy::ChBl);
    EXPECT_EQ(sharded.report_json, serial.report_json)
        << "report diverged at " << shards << " shards";
    EXPECT_EQ(sharded.routed, serial.routed);
    EXPECT_EQ(sharded.forwarded, serial.forwarded);
    EXPECT_EQ(sharded.warm, serial.warm);
    EXPECT_EQ(sharded.cold, serial.cold);
    EXPECT_GT(sharded.windows, 0u);
  }
}

TEST(ShardedCluster, ShortSlicesMatchAndReuseFlightRings) {
  // Every run_for on a 2-shard runtime starts a fresh thread for shard 1.
  // Slicing must not change the simulation, and each exiting shard thread
  // must hand its flight ring back for the next one to reuse.
  auto trace = small_cluster_trace();
  auto coarse = run_cluster(2, trace, LbPolicy::ChBl);
  const std::size_t rings_before = flight::Recorder::instance().ring_count();
  auto fine = run_cluster(2, trace, LbPolicy::ChBl, secs(1));
  EXPECT_EQ(fine.report_json, coarse.report_json);
  EXPECT_EQ(fine.routed, coarse.routed);
  EXPECT_LE(flight::Recorder::instance().ring_count(), rings_before + 1)
      << "flight rings must not accumulate across run_for calls";
}

TEST(ShardedCluster, EquivalenceHoldsForEveryPolicy) {
  auto trace = small_cluster_trace();
  for (LbPolicy lb :
       {LbPolicy::ChBl, LbPolicy::RoundRobin, LbPolicy::LeastLoaded}) {
    auto serial = run_cluster(1, trace, lb);
    auto sharded = run_cluster(3, trace, lb);
    EXPECT_EQ(sharded.report_json, serial.report_json);
    EXPECT_EQ(sharded.routed, serial.routed);
  }
}

TEST(ShardedCluster, LegacySingleRuntimeStillWorks) {
  auto trace = small_cluster_trace();

  SimRuntime rt;
  ClusterConfig cfg;
  cfg.num_workers = 4;
  cfg.worker.cores = 8;
  cfg.worker.memory_mb = 8 * 1024;
  Cluster cluster(rt, cfg);
  for (const auto& f : trace.functions) cluster.register_function(f);
  cluster.start();
  OpenLoopDriver d(rt, [&](FunctionId fn,
                           std::function<void(const InvokeResult&)> cb) {
    cluster.invoke(fn, std::move(cb));
  });
  d.start(trace);
  while (!d.done()) rt.run_for(secs(30));
  cluster.shutdown();
  EXPECT_EQ(d.results().size(), trace.events.size());
}

}  // namespace
}  // namespace ilu
