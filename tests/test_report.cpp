#include "metrics/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace ilu {
namespace {

InvokeResult result(FunctionId fn, bool cold, double exec_ms,
                    double overhead_ms, TimePoint submitted = {}) {
  InvokeResult r;
  r.success = true;
  r.cold = cold;
  r.fn = fn;
  r.submitted = submitted;
  r.exec_time = msecs(exec_ms);
  r.exec_started = submitted + msecs(overhead_ms / 2);
  r.completed = submitted + msecs(exec_ms + overhead_ms);
  return r;
}

InvokeResult dropped(FunctionId fn) {
  InvokeResult r;
  r.dropped = true;
  r.fn = fn;
  return r;
}

InvokeResult failed(FunctionId fn) {
  InvokeResult r;
  r.success = false;
  r.fn = fn;
  return r;
}

TEST(Report, CountsByOutcome) {
  ExperimentReport rep({"alpha", "beta"});
  rep.add(result(0, true, 1000, 500));
  rep.add(result(0, false, 300, 2));
  rep.add(result(1, false, 50, 1));
  rep.add(dropped(1));
  rep.add(failed(0));

  const auto* a = rep.function(0);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->name, "alpha");
  EXPECT_EQ(a->invocations, 3u);
  EXPECT_EQ(a->warm, 1u);
  EXPECT_EQ(a->cold, 1u);
  EXPECT_EQ(a->failed, 1u);

  const auto& g = rep.global();
  EXPECT_EQ(g.invocations, 5u);
  EXPECT_EQ(g.warm, 2u);
  EXPECT_EQ(g.cold, 1u);
  EXPECT_EQ(g.dropped, 1u);
  EXPECT_EQ(g.failed, 1u);
}

TEST(Report, WarmRatioAndStretch) {
  ExperimentReport rep;
  rep.add(result(3, false, 100, 100));  // stretch 2.0
  rep.add(result(3, false, 100, 0));    // stretch 1.0
  rep.add(result(3, true, 100, 300));   // stretch 4.0
  const auto* fr = rep.function(3);
  ASSERT_NE(fr, nullptr);
  EXPECT_NEAR(fr->warm_ratio(), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(fr->mean_stretch(), (2.0 + 1.0 + 4.0) / 3.0, 1e-9);
}

TEST(Report, PercentilesComputed) {
  ExperimentReport rep;
  for (int i = 1; i <= 100; ++i) {
    rep.add(result(0, false, i, 1));
  }
  const auto* fr = rep.function(0);
  EXPECT_NEAR(fr->exec_ms.p50(), 50.5, 1e-9);
  EXPECT_NEAR(fr->flow_ms.p99(), 100.01, 0.1);
}

TEST(Report, UnnamedFunctionGetsGeneratedLabel) {
  ExperimentReport rep({"only_one"});
  rep.add(result(7, false, 10, 1));
  EXPECT_EQ(rep.function(7)->name, "fn_7");
}

TEST(Report, FormatContainsRows) {
  ExperimentReport rep({"fmt_fn"});
  rep.add(result(0, false, 10, 1));
  auto s = rep.format();
  EXPECT_NE(s.find("fmt_fn"), std::string::npos);
  EXPECT_NE(s.find("TOTAL"), std::string::npos);
}

TEST(Report, CsvRoundTripStructure) {
  ExperimentReport rep({"a", "b"});
  rep.add(result(0, false, 10, 1));
  rep.add(result(1, true, 400, 600));
  auto path = (std::filesystem::temp_directory_path() / "ilu_report.csv")
                  .string();
  rep.write_csv(path);
  std::ifstream r(path);
  std::string row;
  ASSERT_TRUE(std::getline(r, row));  // header
  EXPECT_EQ(row.substr(0, row.find(',')), "function");
  int rows = 0;
  while (std::getline(r, row)) ++rows;
  EXPECT_EQ(rows, 3);  // a, b, TOTAL
  std::remove(path.c_str());
}

TEST(Report, AddAllMatchesIndividualAdds) {
  std::vector<InvokeResult> results;
  for (int i = 0; i < 10; ++i) {
    results.push_back(result(static_cast<FunctionId>(i % 2), i % 3 == 0,
                             100 + i, 2));
  }
  ExperimentReport a, b;
  a.add_all(results);
  for (const auto& r : results) b.add(r);
  EXPECT_EQ(a.global().invocations, b.global().invocations);
  EXPECT_EQ(a.global().cold, b.global().cold);
  EXPECT_DOUBLE_EQ(a.global().flow_ms.p50(), b.global().flow_ms.p50());
}

}  // namespace
}  // namespace ilu
