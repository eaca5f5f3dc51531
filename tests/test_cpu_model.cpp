#include "containers/cpu_model.hpp"

#include <gtest/gtest.h>

#include "runtime/sim_runtime.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace ilu {
namespace {

TEST(CpuModel, SingleTaskRunsAtFullWeight) {
  SimRuntime rt;
  CpuModel cpu(rt, 4.0);
  TimePoint done{};
  cpu.submit(2.0, 1.0, [&] { done = rt.now(); });
  rt.run();
  EXPECT_EQ(done, secs(2));
}

TEST(CpuModel, UncontendedTasksDoNotSlowEachOther) {
  SimRuntime rt;
  CpuModel cpu(rt, 4.0);
  std::vector<TimePoint> done(3);
  for (int i = 0; i < 3; ++i) {
    cpu.submit(1.0, 1.0, [&, i] { done[i] = rt.now(); });
  }
  rt.run();
  for (auto d : done) EXPECT_EQ(d, secs(1));
}

TEST(CpuModel, OvercommitSlowsProportionally) {
  SimRuntime rt;
  CpuModel cpu(rt, 2.0);
  // 4 unit-weight tasks on 2 cores: each runs at rate 0.5 -> 1 s work takes 2 s.
  std::vector<TimePoint> done(4);
  for (int i = 0; i < 4; ++i) {
    cpu.submit(1.0, 1.0, [&, i] { done[i] = rt.now(); });
  }
  rt.run();
  for (auto d : done) {
    EXPECT_NEAR(to_sec(d), 2.0, 0.001);
  }
}

TEST(CpuModel, WeightsGiveProportionalAllocation) {
  SimRuntime rt;
  CpuModel cpu(rt, 1.0);
  // Weight 2 vs weight 1 on one core: rates 2/3 and 1/3.
  TimePoint heavy_done{}, light_done{};
  cpu.submit(1.0, 2.0, [&] { heavy_done = rt.now(); });
  cpu.submit(1.0, 1.0, [&] { light_done = rt.now(); });
  rt.run();
  // Heavy finishes at 1.5 s (rate 2/3); then light runs alone.
  EXPECT_NEAR(to_sec(heavy_done), 1.5, 0.001);
  // Light: 0.5 done in first 1.5 s at rate 1/3, remaining 0.5 at rate 1.
  EXPECT_NEAR(to_sec(light_done), 2.0, 0.001);
}

TEST(CpuModel, DeparturesSpeedUpRemainingWork) {
  SimRuntime rt;
  CpuModel cpu(rt, 1.0);
  TimePoint long_done{};
  cpu.submit(0.5, 1.0, [] {});                       // finishes first
  cpu.submit(1.0, 1.0, [&] { long_done = rt.now(); });
  rt.run();
  // Both at rate 0.5 until t=1 (short done, 0.5 work each); long then has
  // 0.5 left at rate 1 -> done at 1.5.
  EXPECT_NEAR(to_sec(long_done), 1.5, 0.001);
}

TEST(CpuModel, ConservationOfWork) {
  // Property: total completion time of any workload on C cores is at least
  // total_work / C, and tasks never finish early.
  SimRuntime rt;
  CpuModel cpu(rt, 3.0);
  double total_work = 0.0;
  TimePoint last{};
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    double work = rng.uniform(0.1, 2.0);
    total_work += work;
    cpu.submit(work, 1.0, [&] { last = std::max(last, rt.now()); });
  }
  rt.run();
  EXPECT_GE(to_sec(last) + 1e-6, total_work / 3.0);
}

TEST(CpuModel, ZeroWorkCompletesImmediately) {
  SimRuntime rt;
  CpuModel cpu(rt, 1.0);
  bool done = false;
  cpu.submit(0.0, 1.0, [&] { done = true; });
  rt.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rt.now(), Duration::zero());
}

TEST(CpuModel, CancelPreventsCompletion) {
  SimRuntime rt;
  CpuModel cpu(rt, 1.0);
  bool fired = false;
  auto id = cpu.submit(5.0, 1.0, [&] { fired = true; });
  rt.schedule(secs(1), [&] { EXPECT_TRUE(cpu.cancel(id)); });
  rt.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(cpu.running(), 0u);
}

TEST(CpuModel, CancelUnknownReturnsFalse) {
  SimRuntime rt;
  CpuModel cpu(rt, 1.0);
  EXPECT_FALSE(cpu.cancel(123));
}

TEST(CpuModel, CancelSpeedsUpOthers) {
  SimRuntime rt;
  CpuModel cpu(rt, 1.0);
  TimePoint done{};
  auto victim = cpu.submit(10.0, 1.0, [] {});
  cpu.submit(1.0, 1.0, [&] { done = rt.now(); });
  rt.schedule(secs(1), [&] { cpu.cancel(victim); });
  rt.run();
  // 0.5 work done by t=1 (shared), then full speed: 0.5 more -> t=1.5.
  EXPECT_NEAR(to_sec(done), 1.5, 0.001);
}

TEST(CpuModel, DemandTracksRunningWeights) {
  SimRuntime rt;
  CpuModel cpu(rt, 8.0);
  cpu.submit(10.0, 2.0, [] {});
  cpu.submit(10.0, 1.5, [] {});
  EXPECT_DOUBLE_EQ(cpu.demand(), 3.5);
  EXPECT_EQ(cpu.running(), 2u);
}

TEST(CpuModel, LoadAverageConvergesUnderSteadyLoad) {
  SimRuntime rt;
  CpuModel cpu(rt, 4.0);
  // Hold demand at 4 for a long time.
  cpu.submit(4000.0, 4.0, [] {});
  rt.run_until(mins(10));
  EXPECT_NEAR(cpu.load_average(), 4.0, 0.05);
}

TEST(CpuModel, LoadAverageDecaysAfterIdle) {
  SimRuntime rt;
  CpuModel cpu(rt, 4.0);
  cpu.submit(40.0, 4.0, [] {});  // runs 10 s at weight 4... wait: rate=4
  rt.run_until(mins(5));
  double at_busy_end = cpu.load_average();
  rt.run_until(mins(30));
  EXPECT_LT(cpu.load_average(), at_busy_end);
  EXPECT_NEAR(cpu.load_average(), 0.0, 0.05);
}

TEST(CpuModel, EstimateReflectsContention) {
  SimRuntime rt;
  CpuModel cpu(rt, 1.0);
  TimePoint alone{}, shared{};
  cpu.submit(1.0, 1.0, [&] { alone = rt.now(); });
  rt.run();
  EXPECT_EQ(alone, secs(1));
  // Beside a second unit-weight task, each gets 0.5 cores.
  cpu.submit(100.0, 1.0, [] {});
  cpu.submit(1.0, 1.0, [&] { shared = rt.now(); });
  rt.run_until(secs(10));
  EXPECT_NEAR(to_sec(shared - alone), 2.0, 0.001);
}

TEST(CpuModel, ManyTasksStressConsistency) {
  SimRuntime rt;
  CpuModel cpu(rt, 4.0);
  int completed = 0;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    rt.schedule(msecs(rng.uniform(0, 10000)), [&] {
      cpu.submit(rng.uniform(0.01, 0.5), rng.uniform(0.5, 2.0),
                 [&] { ++completed; });
    });
  }
  rt.run();
  EXPECT_EQ(completed, 500);
  EXPECT_EQ(cpu.running(), 0u);
  EXPECT_DOUBLE_EQ(cpu.demand(), 0.0);
}


TEST(CpuModel, SameMicrosecondCompletionsFireInSubmissionOrder) {
  SimRuntime rt;
  CpuModel cpu(rt, 8.0);
  // Different (work, weight) pairs that all finish at exactly 1 s.
  std::vector<int> order;
  const double shapes[][2] = {{2.0, 2.0}, {1.0, 1.0}, {0.5, 0.5}, {3.0, 3.0}};
  for (int i = 0; i < 4; ++i) {
    cpu.submit(shapes[i][0], shapes[i][1], [&, i] {
      EXPECT_EQ(rt.now(), secs(1));
      order.push_back(i);
    });
  }
  rt.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(CpuModel, CancellingAMiddleTaskLeavesOthersUnchanged) {
  SimRuntime rt;
  CpuModel cpu(rt, 8.0);  // uncontended: a departure speeds nobody up
  std::vector<TimePoint> done(5, TimePoint{-1});
  std::vector<CpuModel::TaskId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(cpu.submit(i + 1.0, 1.0, [&, i] { done[i] = rt.now(); }));
  }
  rt.schedule(msecs(1500), [&] {
    EXPECT_TRUE(cpu.cancel(ids[2]));
    EXPECT_FALSE(cpu.cancel(ids[2]));
    EXPECT_EQ(cpu.running(), 3u);
  });
  rt.run();
  EXPECT_EQ(done, (std::vector<TimePoint>{secs(1), secs(2), TimePoint{-1},
                                          secs(4), secs(5)}));
}

TEST(CpuModel, GoldenCompletionStream) {
  // 10,000 seeded submits near saturation with random work and weights, a
  // tenth of them cancelled mid-run. Every completion (task index, µs) and
  // every cancel outcome folds into one hash, so a change to the model's
  // arithmetic, rounding or firing order moves it. Recorded from the
  // std::map task table this model replaced.
  SimRuntime rt;
  CpuModel cpu(rt, 8.0);
  Rng rng(2024);
  std::uint64_t h = 0;
  std::uint64_t completed = 0;
  double at_s = 0.0;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    at_s += rng.exponential(0.002);
    const double work = rng.uniform(0.001, 0.03);
    const double weight = rng.uniform(0.5, 2.0);
    const bool cancel = rng.bernoulli(0.1);
    const double cancel_after_s = rng.uniform(0.0, 0.02);
    rt.schedule(secs(at_s), [&, i, work, weight, cancel, cancel_after_s] {
      CpuModel::TaskId id = cpu.submit(work, weight, [&, i] {
        h = hash_combine(h, (i << 40) ^ static_cast<std::uint64_t>(
                                             rt.now().count()));
        ++completed;
      });
      if (cancel) {
        rt.schedule(secs(cancel_after_s), [&, i, id] {
          h = hash_combine(h, (i << 1) | (cpu.cancel(id) ? 1u : 0u));
        });
      }
    });
  }
  rt.run();
  EXPECT_EQ(cpu.running(), 0u);
  EXPECT_GT(completed, 9000u);
  EXPECT_EQ(h, 0xbac4838fd2216554ULL) << std::hex << "0x" << h;
}

}  // namespace
}  // namespace ilu
