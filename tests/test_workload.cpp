#include "trace/workload.hpp"

#include <gtest/gtest.h>

#include "trace/function_profile.hpp"

namespace ilu {
namespace {

Trace tiny_trace() {
  Trace t;
  t.functions = {lookbusy(msecs(100), 128), lookbusy(secs(1), 256)};
  t.duration = secs(10);
  t.events = {
      {secs(0), 0}, {secs(1), 1}, {secs(2), 0}, {secs(3), 0}, {secs(4), 1},
  };
  return t;
}

TEST(FunctionBench, MatchesTable3) {
  auto fb = function_bench();
  ASSERT_EQ(fb.size(), 7u);
  auto cnn = function_bench_app("ml_inference");
  EXPECT_EQ(cnn.mem_mb, 512u);
  EXPECT_EQ(cnn.init_time, secs(4.5));
  EXPECT_EQ(cnn.cold_time(), secs(6.5));  // Table 3 "run time"
  auto fp = function_bench_app("float_op");
  EXPECT_EQ(fp.mem_mb, 128u);
  EXPECT_EQ(fp.init_time, secs(1.7));
  EXPECT_EQ(fp.cold_time(), secs(2.0));
}

TEST(FunctionBench, UnknownAppThrows) {
  EXPECT_THROW(function_bench_app("nope"), std::out_of_range);
}

TEST(FunctionBench, AllWarmTimesPositive) {
  for (const auto& p : function_bench()) {
    EXPECT_GT(p.warm_time, Duration::zero()) << p.name;
    EXPECT_GT(p.init_time, Duration::zero()) << p.name;
  }
}

TEST(TraceStats, CountsAndRate) {
  auto t = tiny_trace();
  auto s = t.stats();
  EXPECT_EQ(s.num_functions, 2u);
  EXPECT_EQ(s.num_invocations, 5u);
  EXPECT_NEAR(s.reqs_per_sec, 0.5, 1e-9);  // 5 events over 10 s
  // IAT over the observed span: 4 s across 4 gaps = 1 s.
  EXPECT_EQ(s.avg_iat, secs(1));
}

TEST(TraceStats, LittlesLawConcurrency) {
  auto t = tiny_trace();
  auto s = t.stats();
  // fn0: 3 inv / 10 s * 0.1 s = 0.03; fn1: 2 / 10 * 1 = 0.2.
  EXPECT_NEAR(s.expected_concurrency, 0.23, 1e-9);
}

TEST(TraceStats, EmptyTrace) {
  Trace t;
  auto s = t.stats();
  EXPECT_EQ(s.num_invocations, 0u);
  EXPECT_DOUBLE_EQ(s.reqs_per_sec, 0.0);
}

TEST(TraceTimeseries, MinuteBuckets) {
  Trace t;
  t.functions = {lookbusy(msecs(10), 64)};
  t.duration = mins(3);
  t.events = {{secs(10), 0}, {secs(20), 0}, {secs(70), 0}};
  auto rps = t.invocations_per_second_by_minute();
  ASSERT_EQ(rps.size(), 3u);
  EXPECT_NEAR(rps[0], 2.0 / 60.0, 1e-9);
  EXPECT_NEAR(rps[1], 1.0 / 60.0, 1e-9);
  EXPECT_NEAR(rps[2], 0.0, 1e-9);
}

TEST(TraceValid, DetectsUnsortedEvents) {
  auto t = tiny_trace();
  EXPECT_TRUE(t.valid());
  std::swap(t.events[0], t.events[4]);
  EXPECT_FALSE(t.valid());
}

TEST(TraceValid, DetectsBadFunctionId) {
  auto t = tiny_trace();
  t.events.push_back({secs(9), 7});
  EXPECT_FALSE(t.valid());
}

}  // namespace
}  // namespace ilu
