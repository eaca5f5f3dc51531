// Tests for the parallel experiment sweep engine (exp/sweep.hpp): the
// determinism contract (byte-identical results at any thread count),
// work distribution, cancellation, the progress line, and the --threads
// flag parsing.
//
// This test is also the TSan target for the engine: build with
// -DILU_SANITIZE=thread and run test_exp_sweep to race-check the claim
// counter and the progress count.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/sweep.hpp"
#include "keepalive/simulator.hpp"
#include "runtime/sim_runtime.hpp"
#include "trace/function_profile.hpp"
#include "trace/loadgen.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"

namespace ilu {
namespace {

/// A self-contained deterministic simulation: seeded random event churn on
/// a private SimRuntime, folded into a row string. Any cross-task
/// interference or result misordering changes the bytes.
struct SimRow {
  std::string row;
  std::uint64_t events = 0;
};

SimRow run_seeded_sim(std::uint32_t seed) {
  SimRuntime rt;
  Rng rng(seed);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  std::vector<Runtime::TimerId> ids;
  for (int i = 0; i < 500; ++i) {
    auto delay = usecs(static_cast<std::int64_t>(rng.uniform_index(100000)));
    ids.push_back(rt.schedule(delay, [&hash, i] {
      hash = (hash ^ static_cast<std::uint64_t>(i)) * 0x100000001b3ull;
    }));
  }
  // Cancel a seed-dependent subset.
  for (std::size_t i = 0; i < ids.size(); i += 1 + seed % 5) {
    rt.cancel(ids[i]);
  }
  rt.run();
  char buf[128];
  std::snprintf(buf, sizeof buf, "seed=%u hash=%016llx events=%llu now=%lld",
                seed, static_cast<unsigned long long>(hash),
                static_cast<unsigned long long>(rt.events_processed()),
                static_cast<long long>(rt.now().count()));
  return SimRow{buf, rt.events_processed()};
}

std::vector<std::function<SimRow()>> seeded_tasks(int n) {
  std::vector<std::function<SimRow()>> tasks;
  for (int i = 0; i < n; ++i) {
    tasks.emplace_back([i] { return run_seeded_sim(static_cast<std::uint32_t>(i)); });
  }
  return tasks;
}

TEST(SweepRunner, ByteIdenticalResultsAcrossThreadCounts) {
  auto tasks = seeded_tasks(24);
  auto seq = exp::SweepRunner({.threads = 1}).run(tasks);
  for (unsigned threads : {2u, 4u, 0u}) {  // 0 = hardware concurrency
    auto par = exp::SweepRunner({.threads = threads}).run(tasks);
    ASSERT_EQ(par.size(), seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      EXPECT_EQ(par[i].row, seq[i].row) << "threads=" << threads << " i=" << i;
      EXPECT_EQ(par[i].events, seq[i].events);
    }
  }
}

TEST(SweepRunner, MatchesPlainSequentialLoop) {
  auto tasks = seeded_tasks(8);
  std::vector<SimRow> plain;
  for (auto& t : tasks) plain.push_back(t());
  auto swept = exp::SweepRunner({.threads = 4}).run(tasks);
  ASSERT_EQ(swept.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(swept[i].row, plain[i].row);
  }
}

TEST(SweepRunner, KeepAliveSweepDeterministicAcrossThreads) {
  // The real fig4/fig5 cell: a ContainerPool replay over a shared
  // read-only trace, swept over cache sizes.
  std::vector<SyntheticFunctionSpec> specs = {
      {.profile = lookbusy(msecs(100), 512, secs(1)), .mean_iat = msecs(50),
       .exponential = true},
      {.profile = lookbusy(msecs(400), 1024, secs(2)), .mean_iat = msecs(200),
       .exponential = true},
  };
  auto trace = make_synthetic_trace(specs, mins(5), 11);
  std::vector<std::function<KeepAliveSimResult()>> tasks;
  for (std::uint64_t mb : {512, 1024, 2048, 4096}) {
    tasks.emplace_back(
        [&trace, mb] { return run_keepalive_sim(trace, "GD", mb); });
  }

  auto seq = exp::SweepRunner({.threads = 1}).run(tasks);
  auto par = exp::SweepRunner({.threads = 4}).run(tasks);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].capacity_mb, par[i].capacity_mb);
    EXPECT_EQ(seq[i].stats.warm_starts, par[i].stats.warm_starts);
    EXPECT_EQ(seq[i].stats.cold_starts, par[i].stats.cold_starts);
    EXPECT_EQ(seq[i].stats.evictions, par[i].stats.evictions);
    EXPECT_EQ(seq[i].stats.total_init_paid, par[i].stats.total_init_paid);
  }
}

TEST(SweepRunner, AllTasksRunExactlyOnce) {
  constexpr int kN = 100;
  std::vector<std::atomic<int>> counts(kN);
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < kN; ++i) {
    tasks.emplace_back([&counts, i] {
      counts[i].fetch_add(1);
      return i;
    });
  }
  auto results = exp::SweepRunner({.threads = 4}).run(tasks);
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(counts[i].load(), 1);
    EXPECT_EQ(results[i], i);
  }
}

TEST(SweepRunner, PropagatesFirstTaskException) {
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.emplace_back([i]() -> int {
      if (i == 5) throw std::runtime_error("cell failed");
      return i;
    });
  }
  // threads=1 runs every job on the calling thread, the others spread them.
  for (unsigned threads : {1u, 4u}) {
    exp::SweepRunner runner({.threads = threads});
    EXPECT_THROW({ runner.run(tasks); }, std::runtime_error)
        << "threads=" << threads;
  }
}

TEST(SweepRunner, StopRequestSkipsRemainingCells) {
  // Sequential runner: job 3 requests a stop, so jobs 4.. never run and
  // run_partial returns them as empty slots.
  exp::SweepRunner runner({.threads = 1});
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.emplace_back([i, &runner] {
      if (i == 3) runner.request_stop();
      return i * i;
    });
  }
  auto slots = runner.run_partial(tasks);
  ASSERT_EQ(slots.size(), 10u);
  for (int i = 0; i <= 3; ++i) {
    ASSERT_TRUE(slots[static_cast<std::size_t>(i)].has_value()) << i;
    EXPECT_EQ(*slots[static_cast<std::size_t>(i)], i * i);
  }
  for (int i = 4; i < 10; ++i) {
    EXPECT_FALSE(slots[static_cast<std::size_t>(i)].has_value()) << i;
  }
  EXPECT_TRUE(runner.stop_requested());
}

TEST(SweepRunner, StopRequestStopsParallelWorkersPromptly) {
  // In-flight jobs complete, and no job starts after the stop flag is
  // visible; with the flag raised by the first job, far fewer than all
  // cells should run (each worker claims at most a few before re-checking).
  exp::SweepRunner runner({.threads = 4});
  std::atomic<int> ran{0};
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 1000; ++i) {
    tasks.emplace_back([i, &ran, &runner] {
      runner.request_stop();
      ran.fetch_add(1);
      return i;
    });
  }
  auto slots = runner.run_partial(tasks);
  int filled = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].has_value()) {
      ++filled;
      EXPECT_EQ(*slots[i], static_cast<int>(i));
    }
  }
  EXPECT_EQ(filled, ran.load());
  EXPECT_LT(filled, 1000) << "stop flag ignored: every cell still ran";
}

TEST(SweepRunner, RunThrowsWhenCancelled) {
  exp::SweepRunner runner({.threads = 1});
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.emplace_back([i, &runner] {
      runner.request_stop();
      return i;
    });
  }
  EXPECT_THROW((void)runner.run(tasks), std::runtime_error);
}

TEST(SweepRunner, StopIsStickyAcrossRuns) {
  exp::SweepRunner runner({.threads = 1});
  runner.request_stop();
  std::vector<std::function<int()>> tasks;
  tasks.emplace_back([] { return 1; });
  auto slots = runner.run_partial(tasks);
  EXPECT_FALSE(slots[0].has_value())
      << "a stopped runner must stay stopped (SIGINT between runs)";
}

TEST(SweepRunner, ReportsProgressWhileAGridRuns) {
  std::vector<std::function<int()>> tasks;
  tasks.emplace_back([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return 1;
  });
  // The reporter writes to std::cerr and is joined before run_jobs returns,
  // so swapping the buffer around the run captures every line it printed.
  std::ostringstream captured;
  std::streambuf* prev = std::cerr.rdbuf(captured.rdbuf());
  exp::SweepRunner({.threads = 1, .progress_interval = msecs(1)}).run(tasks);
  std::cerr.rdbuf(prev);
  EXPECT_TRUE(std::regex_search(captured.str(),
                                std::regex(R"(\[sweep\] [01]/1 cells)")))
      << captured.str();
}

TEST(SweepRunner, ResolvesThreadCounts) {
  EXPECT_GE(exp::SweepRunner({.threads = 0}).threads(), 1u);
  EXPECT_EQ(exp::SweepRunner({.threads = 3}).threads(), 3u);
}

TEST(ThreadsFromArgs, ParsesAndStripsFlag) {
  unsetenv("ILU_THREADS");
  // Mirror main()'s contract: argv[argc] is a nullptr terminator.
  const char* argv_in[] = {"bench", "pos1", "--threads", "6", "pos2"};
  char* argv[6];
  for (int i = 0; i < 5; ++i) argv[i] = const_cast<char*>(argv_in[i]);
  argv[5] = nullptr;
  int argc = 5;
  unsigned threads = exp::threads_from_args(argc, argv, 2);
  EXPECT_EQ(threads, 6u);
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "pos1");
  EXPECT_STREQ(argv[2], "pos2");
  EXPECT_EQ(argv[argc], nullptr);
}

TEST(ThreadsFromArgs, FallbackWhenAbsent) {
  unsetenv("ILU_THREADS");
  const char* argv_in[] = {"bench"};
  char* argv[1];
  argv[0] = const_cast<char*>(argv_in[0]);
  int argc = 1;
  EXPECT_EQ(exp::threads_from_args(argc, argv, 7), 7u);
  EXPECT_EQ(argc, 1);
}

}  // namespace
}  // namespace ilu
