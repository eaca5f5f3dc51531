#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace ilu {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("ilu_csv_test_" + std::to_string(::getpid()) + ".csv"))
                .string();
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(CsvTest, RoundTrip) {
  {
    CsvWriter w(path_);
    w.row("name", "value", "count");
    w.row("foo", 1.5, 3);
    w.flush();
  }
  std::ifstream r(path_);
  std::string line;
  ASSERT_TRUE(std::getline(r, line));
  EXPECT_EQ(line, "name,value,count");
  ASSERT_TRUE(std::getline(r, line));
  ASSERT_EQ(line.rfind("foo,", 0), 0u);
  EXPECT_NEAR(std::stod(line.substr(4)), 1.5, 1e-9);
  EXPECT_EQ(line.substr(line.rfind(',') + 1), "3");
  EXPECT_FALSE(std::getline(r, line));
}

TEST_F(CsvTest, CommaInFieldThrows) {
  CsvWriter w(path_);
  EXPECT_THROW(w.row("a,b"), std::runtime_error);
}

TEST_F(CsvTest, OpenMissingFileThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent/dir/file.csv"), std::runtime_error);
}

}  // namespace
}  // namespace ilu
