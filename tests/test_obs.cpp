// Observability layer: metrics registry (counters/gauges/log histograms,
// snapshots), metrics JSON/CSV exporters, pluggable log sink, and the
// worker's metrics and flight stage records.

#include <gtest/gtest.h>

#include <fstream>
#include <numeric>

#include "iluvatar.hpp"

namespace ilu {
namespace {

// --------------------------------------------------------------- metrics --

TEST(Metrics, CounterAndGaugeBasics) {
  Counter c;
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  Gauge g;
  g.set(7);
  g.add(3);
  g.sub(12);
  EXPECT_EQ(g.value(), -2);
}

TEST(Metrics, RegistryFindOrCreateReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* c1 = reg.counter("x");
  Counter* c2 = reg.counter("x");
  EXPECT_EQ(c1, c2);
  LogHistogram* h1 = reg.log_histogram("h", 1.0, 4.0);
  LogHistogram* h2 = reg.log_histogram("h", 0.5, 99.0);  // geometry wins
  EXPECT_EQ(h1, h2);
  EXPECT_DOUBLE_EQ(h2->min_value(), 1.0);
  EXPECT_DOUBLE_EQ(h2->max_value(), 4.0);
}

TEST(Metrics, SnapshotJsonRoundTrip) {
  MetricsRegistry reg;
  reg.counter("invocations")->inc(42);
  reg.gauge("inflight")->set(-3);
  LogHistogram* h = reg.log_histogram("wait_ms", 1.0, 64.0);
  h->observe(1.0);
  h->observe(3.0);
  h->observe(100.0);  // overflow

  MetricsSnapshot snap = reg.snapshot();
  JsonValue parsed = json_parse(metrics_json(snap).dump());

  EXPECT_DOUBLE_EQ(
      parsed.find("counters")->find("invocations")->as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parsed.find("gauges")->find("inflight")->as_number(),
                   -3.0);
  const JsonValue* hist = parsed.find("log_histograms")->find("wait_ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->find("count")->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(hist->find("sum")->as_number(), 104.0);
  EXPECT_DOUBLE_EQ(hist->find("min")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(hist->find("max")->as_number(), 100.0);
  EXPECT_DOUBLE_EQ(hist->find("overflow_count")->as_number(), 1.0);
  EXPECT_TRUE(hist->find("saturated")->as_bool());
}

TEST(Metrics, CsvExportWrites) {
  MetricsRegistry reg;
  reg.counter("c")->inc(2);
  reg.gauge("g")->set(5);
  reg.log_histogram("h")->observe(0.5);
  std::string path = testing::TempDir() + "/obs_metrics.csv";
  write_metrics_csv(reg.snapshot(), path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("counter"), std::string::npos);
  EXPECT_NE(all.find("gauge"), std::string::npos);
  EXPECT_NE(all.find("log_histogram"), std::string::npos);
}

// --------------------------------------------------- worker integration --

TEST(WorkerObservability, InvocationsBuildSpanTreesAndMetrics) {
  SimRuntime rt;
  WorkerConfig cfg;
  Worker w(rt, cfg);
  auto fn = w.register_function(FunctionProfile{
      .name = "f", .mem_mb = 128, .warm_time = msecs(10),
      .init_time = msecs(100)});
  w.start();
  int done = 0;
  std::function<void(int)> chain = [&](int remaining) {
    if (remaining == 0) return;
    w.invoke(fn, [&, remaining](const InvokeResult& r) {
      EXPECT_TRUE(r.success);
      ++done;
      chain(remaining - 1);
    });
  };
  chain(3);
  while (done < 3) rt.run_for(secs(1));

  // Metrics agree with the worker's own counters.
  auto snap = w.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("worker.invocations"), 3u);
  EXPECT_EQ(snap.counters.at("worker.completed"), 3u);
  EXPECT_EQ(snap.counters.at("worker.cold_starts"), 1u);
  EXPECT_EQ(snap.counters.at("worker.warm_starts"), 2u);
  EXPECT_EQ(snap.gauges.at("worker.inflight"), 0);
  EXPECT_EQ(snap.log_histograms.at("worker.overhead_ms").count, 3u);

  // Serial warm invocations never queue, so each one's overhead is exactly
  // its 13 stage durations: the flight stage records sum to the overhead.
  flight::Recorder& recorder = flight::Recorder::instance();
  recorder.clear();
  constexpr int kWarm = 20;
  Duration overhead{};
  int warm_done = 0;
  std::function<void(int)> warm_chain = [&](int remaining) {
    if (remaining == 0) return;
    w.invoke(fn, [&, remaining](const InvokeResult& r) {
      EXPECT_FALSE(r.cold);
      overhead += r.overhead();
      ++warm_done;
      warm_chain(remaining - 1);
    });
  };
  warm_chain(kWarm);
  while (warm_done < kWarm) rt.run_for(secs(1));
  w.shutdown();

  const flight::StageTotals stages =
      flight::fold_stages(recorder.snapshot_all());
  EXPECT_FALSE(stages.wrapped);
  for (std::uint64_t n : stages.count) EXPECT_EQ(n, std::uint64_t{kWarm});
  EXPECT_EQ(std::accumulate(stages.sum_us.begin(), stages.sum_us.end(),
                            std::uint64_t{0}),
            static_cast<std::uint64_t>(overhead.count()));
}

}  // namespace
}  // namespace ilu
