#include "core/step_function.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/epsilon.hpp"
#include "util/rng.hpp"

namespace cdbp {
namespace {

TEST(StepFunction, ZeroEverywhereInitially) {
  StepFunction f;
  EXPECT_DOUBLE_EQ(f.valueAt(0), 0.0);
  EXPECT_DOUBLE_EQ(f.integral(), 0.0);
  EXPECT_DOUBLE_EQ(f.maxValue(), 0.0);
  EXPECT_TRUE(f.empty());
}

TEST(StepFunction, SingleRangeAdd) {
  StepFunction f;
  f.add({1, 3}, 0.5);
  EXPECT_DOUBLE_EQ(f.valueAt(0.999), 0.0);
  EXPECT_DOUBLE_EQ(f.valueAt(1), 0.5);
  EXPECT_DOUBLE_EQ(f.valueAt(2.999), 0.5);
  EXPECT_DOUBLE_EQ(f.valueAt(3), 0.0);
  EXPECT_DOUBLE_EQ(f.integral(), 1.0);
}

TEST(StepFunction, OverlappingAddsStack) {
  StepFunction f;
  f.add({0, 4}, 1.0);
  f.add({2, 6}, 2.0);
  EXPECT_DOUBLE_EQ(f.valueAt(1), 1.0);
  EXPECT_DOUBLE_EQ(f.valueAt(3), 3.0);
  EXPECT_DOUBLE_EQ(f.valueAt(5), 2.0);
  EXPECT_DOUBLE_EQ(f.integral(), 4.0 + 8.0);
}

TEST(StepFunction, NegativeDeltaRemoves) {
  StepFunction f;
  f.add({0, 10}, 1.0);
  f.add({3, 7}, -1.0);
  EXPECT_DOUBLE_EQ(f.valueAt(5), 0.0);
  EXPECT_DOUBLE_EQ(f.integral(), 6.0);
  EXPECT_DOUBLE_EQ(f.supportMeasure(kSizeEps), 6.0);
}

TEST(StepFunction, MaxOverWindowsAndWholeRange) {
  StepFunction f;
  f.add({0, 2}, 1.0);
  f.add({1, 3}, 2.0);
  EXPECT_DOUBLE_EQ(f.maxOver({0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(f.maxOver({0, 3}), 3.0);
  EXPECT_DOUBLE_EQ(f.maxOver({2.5, 5}), 2.0);
  EXPECT_DOUBLE_EQ(f.maxOver({10, 20}), 0.0);
  EXPECT_DOUBLE_EQ(f.maxValue(), 3.0);
}

TEST(StepFunction, MaxOverIsExclusiveOfRightEndpoint) {
  StepFunction f;
  f.add({5, 6}, 4.0);
  // [0,5) never sees the bump that starts exactly at 5.
  EXPECT_DOUBLE_EQ(f.maxOver({0, 5}), 0.0);
  EXPECT_DOUBLE_EQ(f.maxOver({0, 5.001}), 4.0);
}

TEST(StepFunction, MinOverWindow) {
  StepFunction f;
  f.add({0, 10}, 2.0);
  f.add({4, 6}, -1.5);
  EXPECT_DOUBLE_EQ(f.minOver({0, 10}), 0.5);
  EXPECT_DOUBLE_EQ(f.minOver({0, 4}), 2.0);
  EXPECT_DOUBLE_EQ(f.minOver({20, 30}), 0.0);
}

TEST(StepFunction, IntegralOverSubrange) {
  StepFunction f;
  f.add({0, 4}, 2.0);
  EXPECT_DOUBLE_EQ(f.integralOver({1, 3}), 4.0);
  EXPECT_DOUBLE_EQ(f.integralOver({3, 10}), 2.0);
  EXPECT_DOUBLE_EQ(f.integralOver({-5, 0}), 0.0);
  EXPECT_DOUBLE_EQ(f.integralOver({2, 2}), 0.0);
}

TEST(StepFunction, CeilIntegralRoundsUpFractionalLevels) {
  StepFunction f;
  f.add({0, 1}, 0.3);   // ceil -> 1
  f.add({2, 3}, 1.2);   // ceil -> 2
  EXPECT_DOUBLE_EQ(f.ceilIntegral(kSizeEps), 1.0 + 2.0);
}

TEST(StepFunction, CeilIntegralSnapsNearIntegers) {
  StepFunction f;
  // Sum of ten 0.1 additions is 0.9999999999999999 in binary; the ceil
  // integral must still count it as 1, not 1 rounded from above.
  for (int i = 0; i < 10; ++i) f.add({0, 1}, 0.1);
  EXPECT_DOUBLE_EQ(f.ceilIntegral(kSizeEps), 1.0);
  // And 2.0000000001-style noise must not become 3.
  StepFunction g;
  g.add({0, 1}, 2.0 + 1e-13);
  EXPECT_DOUBLE_EQ(g.ceilIntegral(kSizeEps), 2.0);
}

TEST(StepFunction, SupportMeasureIgnoresZeroGaps) {
  StepFunction f;
  f.add({0, 1}, 1.0);
  f.add({2, 4}, 0.5);
  EXPECT_DOUBLE_EQ(f.supportMeasure(kSizeEps), 3.0);
}

TEST(StepFunction, SegmentsSkipZeroRegions) {
  StepFunction f;
  f.add({0, 1}, 1.0);
  f.add({2, 3}, 2.0);
  auto segs = f.segments();
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].interval, Interval(0, 1));
  EXPECT_DOUBLE_EQ(segs[0].value, 1.0);
  EXPECT_EQ(segs[1].interval, Interval(2, 3));
  EXPECT_DOUBLE_EQ(segs[1].value, 2.0);
}

TEST(StepFunction, NormalizeDropsRedundantBreakpoints) {
  StepFunction f;
  f.add({0, 2}, 1.0);
  f.add({2, 4}, 1.0);  // creates a breakpoint at 2 with equal values
  f.normalize();
  EXPECT_EQ(f.breakpoints().size(), 2u);
  EXPECT_DOUBLE_EQ(f.valueAt(1), 1.0);
  EXPECT_DOUBLE_EQ(f.valueAt(3), 1.0);
  EXPECT_DOUBLE_EQ(f.integral(), 4.0);
}

TEST(StepFunction, EmptyIntervalAddIsNoOp) {
  StepFunction f;
  f.add({5, 5}, 3.0);
  f.add({7, 6}, 3.0);
  EXPECT_TRUE(f.empty());
}

// Differential test: StepFunction against a brute-force dense evaluation.
TEST(StepFunction, RandomizedAgainstBruteForce) {
  Rng rng(20160711);
  for (int trial = 0; trial < 20; ++trial) {
    StepFunction f;
    struct Op {
      double lo, hi, delta;
    };
    std::vector<Op> ops;
    for (int i = 0; i < 30; ++i) {
      double lo = rng.uniform(0, 100);
      double hi = lo + rng.uniform(0, 20);
      double delta = rng.uniform(-1, 1);
      ops.push_back({lo, hi, delta});
      f.add({lo, hi}, delta);
    }
    for (int probe = 0; probe < 50; ++probe) {
      double t = rng.uniform(-5, 125);
      double expected = 0;
      for (const Op& op : ops) {
        if (op.lo <= t && t < op.hi) expected += op.delta;
      }
      EXPECT_NEAR(f.valueAt(t), expected, 1e-9) << "t=" << t;
    }
    // Integral cross-check via midpoint sampling of elementary segments.
    double expectedIntegral = 0;
    for (const Op& op : ops) expectedIntegral += op.delta * (op.hi - op.lo);
    EXPECT_NEAR(f.integral(), expectedIntegral, 1e-6);
  }
}

// sumOf() against the add() oracle: the same breakpoints, values equal to
// rounding (exactly for integer counts), exact zeros where nothing is active.
TEST(StepFunction, SumOfMatchesAddOracle) {
  Rng rng(20160712);
  for (int trial = 0; trial < 20; ++trial) {
    const bool counts = trial % 2 == 0;
    std::vector<StepFunction::Segment> pieces;
    StepFunction oracle;
    for (int i = 0; i < 200; ++i) {
      // Coarse endpoints so pieces often touch, nest and share endpoints.
      double lo = std::round(rng.uniform(0, 400)) / 4.0;
      double hi = lo + std::round(rng.uniform(0, 40)) / 4.0;
      double value = counts ? 1.0 : rng.uniform(0.01, 1.0);
      pieces.push_back({Interval{lo, hi}, value});
      oracle.add({lo, hi}, value);
    }
    StepFunction bulk = StepFunction::sumOf(pieces);
    ASSERT_EQ(bulk.breakpoints(), oracle.breakpoints()) << "trial " << trial;
    std::vector<StepFunction::Segment> got = bulk.segments();
    std::vector<StepFunction::Segment> want = oracle.segments();
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].interval, want[i].interval);
      if (counts) {
        EXPECT_EQ(got[i].value, want[i].value);
      } else {
        EXPECT_NEAR(got[i].value, want[i].value, 1e-9);
      }
    }
    EXPECT_NEAR(bulk.ceilIntegral(kSizeEps), oracle.ceilIntegral(kSizeEps),
                1e-9 * std::max(1.0, oracle.ceilIntegral(kSizeEps)));
    EXPECT_EQ(bulk.supportMeasure(kSizeEps), oracle.supportMeasure(kSizeEps));
  }
}

TEST(StepFunction, SumOfSkipsEmptyAndZeroPieces) {
  StepFunction f = StepFunction::sumOf(
      {{Interval{1, 1}, 0.5}, {Interval{3, 2}, 0.5}, {Interval{0, 4}, 0.0}});
  EXPECT_TRUE(f.empty());
}

TEST(StepFunction, SumOfRestartsFromExactZeroWhenNothingIsActive) {
  // Even the compensated sum of these four values and their negations, in
  // this end order, leaves a residual near -1e-31.
  const double a = 0x1.6c33436c343ep+6;
  const double b = 0x1.2a87dd2ff319fp-100;
  const double c = 0x1.975f305d458d4p-18;
  const double d = 0x1.e9bf335ed2062p-74;
  const double tiny = 0x1p-100;
  StepFunction f = StepFunction::sumOf({{Interval{0, 6}, a},
                                        {Interval{1, 7}, b},
                                        {Interval{2, 5}, c},
                                        {Interval{3, 8}, d},
                                        {Interval{8, 9}, tiny},
                                        {Interval{10, 11}, tiny}});
  // The last piece of a busy stretch ends as a new one starts at 8.
  EXPECT_EQ(f.valueAt(8.5), tiny);
  EXPECT_EQ(f.valueAt(9.5), 0.0);
  EXPECT_EQ(f.valueAt(12), 0.0);
  EXPECT_EQ(f.segments().size(), 9u);
}

}  // namespace
}  // namespace cdbp
