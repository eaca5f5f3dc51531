// Concurrency hammer for the observability layer: 8 threads concurrently
// pounding the metrics registry. Under -DILU_SANITIZE=thread this doubles as
// the TSan gate for obs/ (with test_flight_recorder for the rings); without
// a sanitizer it still validates that no update is lost.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "iluvatar.hpp"

namespace ilu {
namespace {

constexpr int kThreads = 8;
constexpr int kIters = 20000;

TEST(ObsConcurrency, LoggerAndMetricsUnderContention) {
  MetricsRegistry reg;
  // Wire-time registration, hot-path updates through cached pointers — the
  // same discipline the worker uses.
  Counter* ops = reg.counter("hammer.ops");
  Gauge* level = reg.gauge("hammer.level");
  LogHistogram* lat = reg.log_histogram("hammer.lat_ms");

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kIters; ++i) {
        ops->inc();
        level->add(1);
        lat->observe(static_cast<double>(i % 40));
        level->sub(1);
        // Concurrent registration of the same names must converge on the
        // same instruments (registry mutex path).
        if (i % 1000 == 0) {
          EXPECT_EQ(reg.counter("hammer.ops"), ops);
        }
        // Concurrent snapshot while other threads keep writing.
        if (w == 0 && i % 5000 == 0) (void)reg.snapshot();
      }
    });
  }
  for (auto& th : threads) th.join();

  constexpr std::uint64_t kTotal =
      std::uint64_t(kThreads) * std::uint64_t(kIters);
  EXPECT_EQ(ops->value(), kTotal);
  EXPECT_EQ(level->value(), 0);
  EXPECT_EQ(lat->count(), kTotal);
}

}  // namespace
}  // namespace ilu
