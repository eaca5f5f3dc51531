// Observability layer: the worker's counters and its flight stage records.

#include <gtest/gtest.h>

#include <numeric>

#include "iluvatar.hpp"

namespace ilu {
namespace {

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

  // The worker's counters agree with the three completions.
  EXPECT_EQ(w.completed(), 3u);
  EXPECT_EQ(w.cold_starts(), 1u);
  EXPECT_EQ(w.warm_starts(), 2u);
  EXPECT_EQ(w.status().running, 0u);

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
