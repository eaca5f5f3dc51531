#include "common/characteristics.hpp"

#include <gtest/gtest.h>

namespace ilu {
namespace {

TEST(Characteristics, UnseenFunctionIsZero) {
  CharacteristicsMap m;
  EXPECT_EQ(m.expected_warm(5), Duration::zero());
  EXPECT_EQ(m.expected_cold(5), Duration::zero());
  EXPECT_DOUBLE_EQ(m.mean_iat_s(5), 0.0);
  EXPECT_EQ(m.arrivals(5), 0u);
}

TEST(Characteristics, UnseenFunctionReadCreatesNoEntry) {
  CharacteristicsMap m;
  m.on_arrival(2, secs(1));
  ASSERT_EQ(m.tracked(), 1u);
  // Ids below, between and far beyond the seen one all read as zeros...
  for (FunctionId fn : {0u, 1u, 3u, 1000000u}) {
    EXPECT_EQ(m.expected_warm(fn), Duration::zero());
    EXPECT_EQ(m.expected_cold(fn), Duration::zero());
    EXPECT_DOUBLE_EQ(m.mean_iat_s(fn), 0.0);
    EXPECT_EQ(m.arrivals(fn), 0u);
  }
  // ...and reading them created nothing.
  EXPECT_EQ(m.tracked(), 1u);
  EXPECT_EQ(m.arrivals(2), 1u);
}

TEST(Characteristics, EntriesAreCreatedOnFirstTouch) {
  CharacteristicsMap m;
  EXPECT_EQ(m.tracked(), 0u);
  m.record_cold(7, secs(1));
  m.record_warm(7, msecs(10));
  m.on_arrival(7, secs(0));
  EXPECT_EQ(m.tracked(), 1u);
  m.on_arrival(500, secs(0));
  EXPECT_EQ(m.tracked(), 2u);
  // Growing the id index keeps every earlier entry's state.
  EXPECT_EQ(m.expected_cold(7), secs(1));
  EXPECT_EQ(m.expected_warm(7), msecs(10));
  EXPECT_EQ(m.arrivals(7), 1u);
}

TEST(Characteristics, MovingWindowMean) {
  CharacteristicsMap m;
  m.record_warm(0, msecs(100));
  m.record_warm(0, msecs(200));
  EXPECT_EQ(m.expected_warm(0), msecs(150));
}

TEST(Characteristics, WindowEvictsOldSamples) {
  CharacteristicsMap m(/*window=*/2);
  m.record_warm(0, msecs(1000));
  m.record_warm(0, msecs(100));
  m.record_warm(0, msecs(100));
  EXPECT_EQ(m.expected_warm(0), msecs(100));
}

TEST(Characteristics, ColdAndWarmTrackedSeparately) {
  CharacteristicsMap m;
  m.record_warm(0, msecs(100));
  m.record_cold(0, secs(2));
  EXPECT_EQ(m.expected_warm(0), msecs(100));
  EXPECT_EQ(m.expected_cold(0), secs(2));
}

TEST(Characteristics, IatTracking) {
  CharacteristicsMap m;
  m.on_arrival(0, secs(0));
  m.on_arrival(0, secs(10));
  m.on_arrival(0, secs(20));
  EXPECT_DOUBLE_EQ(m.mean_iat_s(0), 10.0);
  EXPECT_EQ(m.arrivals(0), 3u);
}

TEST(Characteristics, FirstArrivalHasNoIat) {
  CharacteristicsMap m;
  m.on_arrival(0, secs(100));
  EXPECT_DOUBLE_EQ(m.mean_iat_s(0), 0.0);
}

TEST(Characteristics, IndependentFunctions) {
  CharacteristicsMap m;
  m.record_warm(0, msecs(10));
  m.record_warm(3, msecs(90));
  EXPECT_EQ(m.expected_warm(0), msecs(10));
  EXPECT_EQ(m.expected_warm(3), msecs(90));
  EXPECT_EQ(m.expected_warm(1), Duration::zero());
}

}  // namespace
}  // namespace ilu
