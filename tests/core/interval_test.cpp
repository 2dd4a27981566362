#include "core/interval.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace cdbp {
namespace {

TEST(Interval, LengthOfRegularInterval) {
  Interval I{2.0, 5.5};
  EXPECT_DOUBLE_EQ(I.length(), 3.5);
  EXPECT_FALSE(I.empty());
}

TEST(Interval, EmptyWhenDegenerateOrInverted) {
  EXPECT_TRUE(Interval(3.0, 3.0).empty());
  EXPECT_TRUE(Interval(4.0, 2.0).empty());
  EXPECT_DOUBLE_EQ(Interval(4.0, 2.0).length(), 0.0);
}

TEST(Interval, ContainsIsHalfOpen) {
  Interval I{1.0, 2.0};
  EXPECT_TRUE(I.contains(1.0));   // left endpoint included
  EXPECT_TRUE(I.contains(1.5));
  EXPECT_FALSE(I.contains(2.0));  // right endpoint excluded
  EXPECT_FALSE(I.contains(0.999));
}

TEST(Interval, ContainsInterval) {
  Interval outer{0.0, 10.0};
  EXPECT_TRUE(outer.contains(Interval{2.0, 5.0}));
  EXPECT_TRUE(outer.contains(Interval{0.0, 10.0}));
  EXPECT_FALSE(outer.contains(Interval{-1.0, 5.0}));
  EXPECT_TRUE(outer.contains(Interval{5.0, 5.0}));  // empty contained anywhere
}

TEST(Interval, TouchingIntervalsDoNotOverlap) {
  EXPECT_FALSE(Interval(0, 1).overlaps(Interval(1, 2)));
  EXPECT_FALSE(Interval(1, 2).overlaps(Interval(0, 1)));
  EXPECT_TRUE(Interval(0, 1.5).overlaps(Interval(1, 2)));
}

TEST(Interval, IntersectProducesClippedInterval) {
  Interval a{0, 5};
  Interval b{3, 8};
  EXPECT_EQ(a.intersect(b), Interval(3, 5));
  EXPECT_TRUE(a.intersect(Interval(6, 7)).empty());
}

TEST(IntervalSet, SingleIntervalMeasure) {
  IntervalSet set;
  set.add({1, 4});
  EXPECT_DOUBLE_EQ(set.measure(), 3.0);
}

TEST(IntervalSet, DisjointIntervalsSumTheirLengths) {
  IntervalSet set;
  set.add({0, 1});
  set.add({5, 7});
  EXPECT_DOUBLE_EQ(set.measure(), 3.0);
  EXPECT_EQ(set.parts().size(), 2u);
}

TEST(IntervalSet, OverlappingIntervalsMerge) {
  IntervalSet set;
  set.add({0, 3});
  set.add({2, 5});
  EXPECT_DOUBLE_EQ(set.measure(), 5.0);
  EXPECT_EQ(set.parts().size(), 1u);
}

TEST(IntervalSet, TouchingIntervalsMergeIntoOnePart) {
  IntervalSet set;
  set.add({0, 2});
  set.add({2, 4});
  ASSERT_EQ(set.parts().size(), 1u);
  EXPECT_EQ(set.parts()[0], Interval(0, 4));
}

TEST(IntervalSet, AddAbsorbsMultipleExistingParts) {
  IntervalSet set;
  set.add({0, 1});
  set.add({2, 3});
  set.add({4, 5});
  set.add({0.5, 4.5});  // spans all three
  ASSERT_EQ(set.parts().size(), 1u);
  EXPECT_EQ(set.parts()[0], Interval(0, 5));
}

TEST(IntervalSet, InsertBetweenExistingParts) {
  IntervalSet set;
  set.add({0, 1});
  set.add({10, 11});
  set.add({5, 6});
  ASSERT_EQ(set.parts().size(), 3u);
  EXPECT_EQ(set.parts()[1], Interval(5, 6));
}

TEST(IntervalSet, EmptyIntervalIsIgnored) {
  IntervalSet set;
  set.add({3, 3});
  EXPECT_TRUE(set.empty());
  EXPECT_DOUBLE_EQ(set.measure(), 0.0);
}

TEST(IntervalSet, ContainsRespectsHalfOpenParts) {
  IntervalSet set;
  set.add({0, 1});
  set.add({2, 3});
  EXPECT_TRUE(set.contains(0.0));
  EXPECT_FALSE(set.contains(1.0));
  EXPECT_TRUE(set.contains(2.5));
  EXPECT_FALSE(set.contains(1.5));
}

TEST(IntervalSet, OverlapsQuery) {
  IntervalSet set;
  set.add({0, 1});
  set.add({5, 6});
  EXPECT_TRUE(set.overlaps({0.5, 5.5}));
  EXPECT_FALSE(set.overlaps({1, 5}));  // touches both, overlaps neither
  EXPECT_FALSE(set.overlaps({7, 8}));
}

TEST(IntervalSet, MinMaxEndpoints) {
  IntervalSet set;
  set.add({4, 5});
  set.add({1, 2});
  EXPECT_DOUBLE_EQ(set.min(), 1.0);
  EXPECT_DOUBLE_EQ(set.max(), 5.0);
}

TEST(IntervalSet, MergeWithAnotherSet) {
  IntervalSet a;
  a.add({0, 2});
  IntervalSet b;
  b.add({1, 3});
  b.add({10, 12});
  a.add(b);
  EXPECT_DOUBLE_EQ(a.measure(), 5.0);
  EXPECT_EQ(a.parts().size(), 2u);
}

TEST(IntervalSet, ConstructorNormalizesArbitraryInput) {
  IntervalSet set({{5, 7}, {0, 2}, {1, 6}});
  ASSERT_EQ(set.parts().size(), 1u);
  EXPECT_EQ(set.parts()[0], Interval(0, 7));
}

TEST(UnionMeasure, MatchesManualComputation) {
  EXPECT_DOUBLE_EQ(unionMeasure({{0, 2}, {1, 3}, {10, 11}}), 4.0);
  EXPECT_DOUBLE_EQ(unionMeasure({}), 0.0);
}

TEST(IntervalSet, ConstructorMatchesIncrementalAddInAnyOrder) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Interval> intervals;
    IntervalSet incremental;
    for (int i = 0; i < 60; ++i) {
      double lo = std::round(rng.uniform(0, 200)) / 2.0;
      Interval I{lo, lo + std::round(rng.uniform(-2, 20)) / 2.0};
      intervals.push_back(I);
      incremental.add(I);
    }
    EXPECT_EQ(IntervalSet(intervals), incremental) << "trial " << trial;
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
    EXPECT_EQ(IntervalSet(intervals), incremental) << "sorted, trial " << trial;
  }
}

}  // namespace
}  // namespace cdbp
