// Telemetry sampler (obs/telemetry): cadence contract under virtual time,
// counter rates, ratios, registry wiring, exports — and the acceptance
// criterion that attaching a sampler to a sharded cluster run leaves the
// ExperimentReport byte-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lb/cluster.hpp"
#include "metrics/report.hpp"
#include "obs/telemetry.hpp"
#include "runtime/sim_runtime.hpp"
#include "trace/azure.hpp"
#include "trace/loadgen.hpp"
#include "util/json.hpp"

namespace ilu {
namespace {

TEST(Telemetry, CadenceProducesOneFramePerPeriod) {
  SimRuntime rt;
  TelemetrySampler s(rt, msecs(100));
  s.add_probe("one", [] { return 1.0; });
  s.start();
  rt.run_until(msecs(1050));
  EXPECT_EQ(s.frames().size(), 10u) << "first frame at t=100ms, then every "
                                       "100ms through t=1000ms";
  EXPECT_EQ(s.frames()[0].ts, msecs(100));
  EXPECT_EQ(s.frames()[9].ts, msecs(1000));
  s.stop();
  rt.run_until(msecs(2000));
  EXPECT_EQ(s.frames().size(), 10u) << "no frames after stop()";
}

TEST(Telemetry, SampleNowAppendsOutOfSchedule) {
  SimRuntime rt;
  TelemetrySampler s(rt, secs(10));
  s.add_probe("v", [] { return 2.5; });
  s.sample_now();
  ASSERT_EQ(s.frames().size(), 1u);
  EXPECT_EQ(s.frames()[0].ts, Duration::zero());
  EXPECT_DOUBLE_EQ(s.frames()[0].values.at("v"), 2.5);
}

TEST(Telemetry, CounterProbeEmitsCumulativeAndRate) {
  SimRuntime rt;
  std::uint64_t done = 0;
  // 5 completions per 100 ms window → a steady 50/s.
  for (int i = 1; i <= 50; ++i) {
    rt.schedule(msecs(i * 20), [&done] { ++done; });
  }
  TelemetrySampler s(rt, msecs(100));
  s.add_counter_probe("completed", [&done] { return done; });
  s.start();
  rt.run_until(msecs(1001));
  ASSERT_EQ(s.frames().size(), 10u);
  EXPECT_DOUBLE_EQ(s.frames()[0].values.at("completed:rate"), 0.0)
      << "no previous frame to difference against";
  for (std::size_t i = 1; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(s.frames()[i].values.at("completed:rate"), 50.0)
        << "frame " << i;
  }
  EXPECT_DOUBLE_EQ(s.frames()[9].values.at("completed"), 50.0);
}

TEST(Telemetry, RegistryWiringEmitsAllInstrumentKinds) {
  SimRuntime rt;
  MetricsRegistry reg;
  reg.counter("invokes")->inc(7);
  reg.gauge("queue_depth")->set(3);
  reg.log_histogram("wait_ms")->observe(1.5);

  TelemetrySampler s(rt, msecs(100));
  s.add_registry("w0.", &reg);
  s.sample_now();
  ASSERT_EQ(s.frames().size(), 1u);
  const auto& v = s.frames()[0].values;
  EXPECT_DOUBLE_EQ(v.at("w0.invokes"), 7.0);
  EXPECT_DOUBLE_EQ(v.at("w0.invokes:rate"), 0.0);
  EXPECT_DOUBLE_EQ(v.at("w0.queue_depth"), 3.0);
  EXPECT_DOUBLE_EQ(v.at("w0.wait_ms:p50"), 1.5);
  EXPECT_TRUE(v.count("w0.wait_ms:p99"));
  EXPECT_TRUE(v.count("w0.wait_ms:p999"));
}

TEST(Telemetry, RatioComputedFromSameFrame) {
  SimRuntime rt;
  TelemetrySampler s(rt, msecs(100));
  s.add_probe("warm", [] { return 30.0; });
  s.add_probe("total", [] { return 40.0; });
  s.add_probe("empty", [] { return 0.0; });
  s.add_ratio("warm_hit_ratio", "warm", "total");
  s.add_ratio("div_by_zero", "warm", "empty");
  s.sample_now();
  const auto& v = s.frames()[0].values;
  EXPECT_DOUBLE_EQ(v.at("warm_hit_ratio"), 0.75);
  EXPECT_DOUBLE_EQ(v.at("div_by_zero"), 0.0);
}

TEST(Telemetry, StatusLineRendersLatestFrame) {
  SimRuntime rt;
  rt.schedule(secs(12), [] {});
  rt.run();
  TelemetrySampler s(rt, secs(1));
  EXPECT_EQ(s.status_line(), "");
  s.add_probe("depth", [] { return 4.0; });
  s.sample_now();
  std::string line = s.status_line();
  EXPECT_EQ(line.find("[t=12.0s]"), 0u) << line;
  EXPECT_NE(line.find("depth=4"), std::string::npos) << line;
}

TEST(Telemetry, StatusStreamMirrorsFrames) {
  SimRuntime rt;
  TelemetrySampler s(rt, msecs(100));
  s.add_probe("x", [] { return 1.0; });
  std::ostringstream os;
  s.set_status_stream(&os);
  s.start();
  rt.run_until(msecs(350));
  EXPECT_EQ(s.frames().size(), 3u);
  // One line per frame.
  std::string out = os.str();
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
}

TEST(Telemetry, JsonAndCsvExportRoundTrip) {
  SimRuntime rt;
  TelemetrySampler s(rt, msecs(100));
  std::uint64_t n = 0;
  rt.schedule(msecs(150), [&n] { ++n; });
  s.add_counter_probe("n", [&n] { return n; });
  s.start();
  rt.run_until(msecs(301));
  ASSERT_EQ(s.frames().size(), 3u);

  std::string jpath = ::testing::TempDir() + "telemetry.json";
  std::string cpath = ::testing::TempDir() + "telemetry.csv";
  s.write_json(jpath);
  s.write_csv(cpath);

  JsonValue doc = json_parse_file(jpath);
  EXPECT_DOUBLE_EQ(doc.find("cadence_us")->as_number(), 100000.0);
  const JsonValue* frames = doc.find("frames");
  ASSERT_NE(frames, nullptr);
  ASSERT_EQ(frames->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(frames->as_array()[1].find("ts_us")->as_number(),
                   200000.0);
  EXPECT_DOUBLE_EQ(
      frames->as_array()[1].find("values")->find("n")->as_number(), 1.0);

  std::ifstream in(cpath);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header.find("ts_us"), 0u) << header;
  EXPECT_NE(header.find("n:rate"), std::string::npos) << header;
  int rows = 0;
  for (std::string line; std::getline(in, line);) ++rows;
  EXPECT_EQ(rows, 3);
  std::remove(jpath.c_str());
  std::remove(cpath.c_str());
}

// ---- determinism acceptance criterion ------------------------------------

Trace telemetry_trace() {
  AzureModelConfig cfg;
  cfg.population = 600;
  cfg.days = 0.03;
  cfg.seed = 91;
  cfg.dur_median_s = 0.3;
  cfg.dur_sigma = 1.2;
  cfg.max_dur_s = 4.0;
  cfg.min_init_s = 0.05;
  cfg.max_init_s = 1.5;
  AzureTraceModel model(cfg);
  return model.sample_random(16, /*target_rps=*/2.0);
}

std::string run_sharded(const Trace& trace, bool telemetry,
                        std::size_t* frames_out) {
  ClusterConfig cfg;
  cfg.num_workers = 2;
  cfg.worker.cores = 4;
  cfg.worker.memory_mb = 4 * 1024;

  ShardedRuntime srt(2, cfg.rpc.lower_bound());
  Cluster cluster(srt, cfg);
  for (const auto& f : trace.functions) cluster.register_function(f);
  cluster.start();

  TelemetrySampler sampler(srt.shard(0), msecs(500));
  if (telemetry) {
    sampler.add_counter_probe("events",
                              [&srt] { return srt.total_events(); });
    sampler.add_probe("shard0_events", [&srt] {
      return static_cast<double>(srt.shard_events(0));
    });
    sampler.start();
  }

  OpenLoopDriver d(srt.shard(0),
                   [&](FunctionId fn,
                       std::function<void(const InvokeResult&)> cb) {
                     cluster.invoke(fn, std::move(cb));
                   });
  d.start(trace);
  while (!d.done()) srt.run_for(secs(30));
  if (telemetry) {
    sampler.sample_now();
    sampler.stop();
  }
  cluster.shutdown();
  if (frames_out != nullptr) *frames_out = sampler.frames().size();

  std::vector<std::string> names;
  for (const auto& f : trace.functions) names.push_back(f.name);
  ExperimentReport rep(std::move(names));
  rep.add_all(d.results());
  return rep.to_json().dump();
}

/// Sampling only ever reads atomics and snapshots — a sharded run with the
/// sampler attached must produce a byte-identical report to one without.
TEST(Telemetry, ShardedReportByteIdenticalWithSamplerOnOrOff) {
  Trace trace = telemetry_trace();
  std::size_t frames_on = 0;
  std::string with = run_sharded(trace, true, &frames_on);
  std::string without = run_sharded(trace, false, nullptr);
  EXPECT_GT(frames_on, 1u) << "sampler must actually have run";
  EXPECT_EQ(with, without);
}

}  // namespace
}  // namespace ilu
