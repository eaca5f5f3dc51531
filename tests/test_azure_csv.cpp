#include "trace/azure_csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <unistd.h>

#include "keepalive/simulator.hpp"

namespace ilu {
namespace {

/// Writes a miniature dataset in the real AzureFunctionsDataset2019 schema.
class AzureCsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test and process: ctest runs these tests in
    // parallel processes, and a shared directory let one test's TearDown
    // delete the files another was reading.
    dir_ = std::filesystem::temp_directory_path() /
           ("ilu_azure_csv_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    inv_ = (dir_ / "invocations.csv").string();
    dur_ = (dir_ / "durations.csv").string();
    mem_ = (dir_ / "memory.csv").string();

    {
      std::ofstream f(inv_);
      f << "HashOwner,HashApp,HashFunction,Trigger";
      for (int m = 1; m <= 5; ++m) f << "," << m;
      f << "\n";
      // fnA (appX): 3 invocations in minute 1, 1 in minute 3.
      f << "o1,appX,fnA,http,3,0,1,0,0\n";
      // fnB (appX): invoked once only -> dropped (paper rule).
      f << "o1,appX,fnB,timer,1,0,0,0,0\n";
      // fnC (appY): 2 invocations in minute 5.
      f << "o2,appY,fnC,queue,0,0,0,0,2\n";
    }
    {
      std::ofstream f(dur_);
      f << "HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum\n";
      f << "o1,appX,fnA,1000,4,800,3500\n";
      // fnC intentionally missing -> defaults used.
    }
    {
      std::ofstream f(mem_);
      f << "HashOwner,HashApp,SampleCount,AverageAllocatedMb\n";
      f << "o1,appX,100,400\n";
      f << "o2,appY,100,96\n";
    }
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string inv_, dur_, mem_;
};

TEST_F(AzureCsvTest, LoadsFunctionsAndDropsSingletons) {
  auto t = load_azure_dataset(inv_, dur_, mem_);
  ASSERT_EQ(t.functions.size(), 2u);  // fnB dropped
  EXPECT_EQ(t.functions[0].name, "fnA");
  EXPECT_EQ(t.functions[1].name, "fnC");
  EXPECT_TRUE(t.valid());
}

TEST_F(AzureCsvTest, DurationsMapped) {
  auto t = load_azure_dataset(inv_, dur_, mem_);
  // fnA: warm = Average (1000 ms); init = Maximum - Average (2500 ms).
  EXPECT_EQ(t.functions[0].warm_time, msecs(1000));
  EXPECT_EQ(t.functions[0].init_time, msecs(2500));
  // fnC: defaults.
  AzureCsvOptions opts;
  EXPECT_EQ(t.functions[1].warm_time, opts.default_warm);
  EXPECT_EQ(t.functions[1].init_time, opts.min_init);
}

TEST_F(AzureCsvTest, AppMemorySplitEvenly) {
  auto t = load_azure_dataset(inv_, dur_, mem_);
  // appX has two functions in the invocations file (fnA, fnB) -> 400/2.
  EXPECT_EQ(t.functions[0].mem_mb, 200u);
  // appY has one -> 96.
  EXPECT_EQ(t.functions[1].mem_mb, 96u);
}

TEST_F(AzureCsvTest, MinuteBucketReplayRule) {
  auto t = load_azure_dataset(inv_, dur_, mem_);
  // fnA minute 1 (bucket index 0): 3 invocations equally spaced 20 s apart.
  ASSERT_GE(t.events.size(), 4u);
  EXPECT_EQ(t.events[0].at, secs(0));
  EXPECT_EQ(t.events[1].at, secs(20));
  EXPECT_EQ(t.events[2].at, secs(40));
  // fnA minute 3 single invocation -> start of minute (120 s).
  EXPECT_EQ(t.events[3].at, secs(120));
  // fnC minute 5: two at 240 and 270.
  EXPECT_EQ(t.events[4].at, secs(240));
  EXPECT_EQ(t.events[5].at, secs(270));
  EXPECT_EQ(t.events[4].fn, 1u);
}

TEST_F(AzureCsvTest, DurationCoversAllMinutes) {
  auto t = load_azure_dataset(inv_, dur_, mem_);
  EXPECT_EQ(t.duration, mins(5));
}

TEST_F(AzureCsvTest, MaxFunctionsLimits) {
  AzureCsvOptions opts;
  opts.max_functions = 1;
  auto t = load_azure_dataset(inv_, dur_, mem_, opts);
  EXPECT_EQ(t.functions.size(), 1u);
}

TEST_F(AzureCsvTest, MissingFileThrows) {
  EXPECT_THROW(load_azure_dataset("/no/such.csv", dur_, mem_),
               std::runtime_error);
}

TEST_F(AzureCsvTest, MalformedHeaderThrows) {
  auto bad = (dir_ / "bad.csv").string();
  {
    std::ofstream f(bad);
    f << "NotTheRightColumns\nx\n";
  }
  EXPECT_THROW(load_azure_dataset(bad, dur_, mem_), std::runtime_error);
}

TEST_F(AzureCsvTest, LoadedTraceRunsThroughKeepAliveSim) {
  auto t = load_azure_dataset(inv_, dur_, mem_);
  auto r = run_keepalive_sim(t, "GD", 1024);
  EXPECT_EQ(r.stats.invocations, t.events.size());
  EXPECT_GT(r.stats.cold_starts, 0u);
}

}  // namespace
}  // namespace ilu
