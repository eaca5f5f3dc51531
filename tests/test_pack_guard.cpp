// Death tests for PackedKey::pack's bounds checks. The packed key format
// silently truncates out-of-range inputs in release builds (documented and
// benign for the generators, which clamp first), so the only line of
// defense against a corrupting caller is the ILU_DCHECK pair in pack() —
// this binary builds with ILU_DEBUG_CHECKS=1 to prove those checks fire.
// Header-only on purpose: pack/key_at/key_fn are inline in
// trace/workload.hpp, so no library TU compiled without the flag mixes in.

#include <gtest/gtest.h>

#include "trace/workload.hpp"

namespace ilu {
namespace {

static_assert(ILU_DEBUG_CHECKS == 1,
              "this test must build with packed-key bounds checks enabled");

class PackGuardDeathTest : public ::testing::Test {
 protected:
  PackGuardDeathTest() {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(PackGuardDeathTest, InBoundsExtremesSurvive) {
  std::uint64_t k =
      PackedKey::pack(TimePoint{PackedKey::kMaxUs},
                       static_cast<FunctionId>(PackedKey::kMaxFn));
  EXPECT_EQ(PackedKey::key_at(k).count(), PackedKey::kMaxUs);
  EXPECT_EQ(PackedKey::key_fn(k), PackedKey::kMaxFn);
}

TEST_F(PackGuardDeathTest, NegativeTimeAborts) {
  EXPECT_DEATH(PackedKey::pack(TimePoint{-1}, 0),
               "event time out of packed-key range");
}

TEST_F(PackGuardDeathTest, TimePastMaxAborts) {
  EXPECT_DEATH(PackedKey::pack(TimePoint{PackedKey::kMaxUs + 1}, 0),
               "event time out of packed-key range");
}

TEST_F(PackGuardDeathTest, FunctionIdPastMaxAborts) {
  EXPECT_DEATH(PackedKey::pack(
                   TimePoint{0},
                   static_cast<FunctionId>(PackedKey::kMaxFn + 1)),
               "function id out of packed-key range");
}

}  // namespace
}  // namespace ilu
