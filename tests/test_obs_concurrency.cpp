// Concurrency hammer for the observability layer: 8 threads observing into
// one shared LogHistogram, the way exp/live_load's producer threads share
// `lateness_ms`. Under -DILU_SANITIZE=thread this doubles as the TSan gate
// for obs/metrics (with test_flight_recorder for the rings); without a
// sanitizer it still validates that no observation is lost.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "iluvatar.hpp"

namespace ilu {
namespace {

constexpr int kThreads = 8;
constexpr int kIters = 20000;

/// Whole microseconds, like a producer's submission lateness.
std::int64_t lateness_us(int thread, int i) { return (i % 40) * 7 + thread; }

TEST(ObsConcurrency, LoggerAndMetricsUnderContention) {
  LogHistogram lateness_ms;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&lateness_ms, w] {
      for (int i = 0; i < kIters; ++i) {
        lateness_ms.observe(static_cast<double>(lateness_us(w, i)) / 1000.0);
        // Concurrent reads while the other threads keep writing.
        if (w == 0 && i % 5000 == 0) (void)lateness_ms.percentile(0.99);
      }
    });
  }
  for (auto& th : threads) th.join();

  std::int64_t total_us = 0;
  for (int w = 0; w < kThreads; ++w) {
    for (int i = 0; i < kIters; ++i) total_us += lateness_us(w, i);
  }
  EXPECT_EQ(lateness_ms.count(),
            std::uint64_t(kThreads) * std::uint64_t(kIters));
  // Sums are kept in micro-units of the observed value (ns for ms), so a
  // whole-µs sum reads back exactly.
  EXPECT_EQ(lateness_ms.sum(), static_cast<double>(total_us * 1000) / 1e6);
  EXPECT_EQ(lateness_ms.observed_max(),
            static_cast<double>(lateness_us(kThreads - 1, 39)) / 1000.0);
}

}  // namespace
}  // namespace ilu
