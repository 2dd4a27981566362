#include "core/lower_bounds.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/epsilon.hpp"
#include "online/policy_factory.hpp"
#include "sim/streaming.hpp"
#include "workload/generators.hpp"

namespace cdbp {
namespace {

TEST(LowerBounds, SingleItem) {
  Instance inst = InstanceBuilder().add(0.5, 0, 2).build();
  LowerBounds lb = lowerBounds(inst);
  EXPECT_DOUBLE_EQ(lb.demand, 1.0);
  EXPECT_DOUBLE_EQ(lb.span, 2.0);
  EXPECT_DOUBLE_EQ(lb.ceilIntegral, 2.0);  // ceil(0.5) = 1 bin for 2 units
  EXPECT_DOUBLE_EQ(lb.best(), 2.0);
}

TEST(LowerBounds, CeilIntegralCountsBinsPerSegment) {
  // Three 0.6-items overlapping on [0,1): S(t)=1.8 -> 2 bins there.
  Instance inst = InstanceBuilder()
                      .add(0.6, 0, 1)
                      .add(0.6, 0, 1)
                      .add(0.6, 0, 2)
                      .build();
  LowerBounds lb = lowerBounds(inst);
  EXPECT_DOUBLE_EQ(lb.ceilIntegral, 2.0 * 1.0 + 1.0 * 1.0);
  EXPECT_DOUBLE_EQ(lb.span, 2.0);
  EXPECT_NEAR(lb.demand, 0.6 + 0.6 + 1.2, 1e-12);
}

TEST(LowerBounds, Proposition3DominatesOnDenseLoad) {
  // Demand chart: S(t) = 1.1 on [0,10): LB3 = 20 > demand 11 > span 10.
  InstanceBuilder builder;
  for (int i = 0; i < 11; ++i) builder.add(0.1, 0, 10);
  LowerBounds lb = lowerBounds(builder.build());
  EXPECT_NEAR(lb.demand, 11.0, 1e-9);
  EXPECT_DOUBLE_EQ(lb.span, 10.0);
  EXPECT_NEAR(lb.ceilIntegral, 20.0, 1e-9);
  EXPECT_NEAR(lb.best(), lb.ceilIntegral, 1e-9);
}

TEST(LowerBounds, DisjointItemsSpanEqualsCeilIntegral) {
  Instance inst = InstanceBuilder().add(0.2, 0, 1).add(0.9, 5, 7).build();
  LowerBounds lb = lowerBounds(inst);
  EXPECT_DOUBLE_EQ(lb.span, 3.0);
  EXPECT_DOUBLE_EQ(lb.ceilIntegral, 3.0);
}

TEST(LowerBounds, EmptyInstanceIsAllZero) {
  LowerBounds lb = lowerBounds(Instance{});
  EXPECT_DOUBLE_EQ(lb.best(), 0.0);
}

TEST(LowerBounds, TotalSizeProfileMatchesInstanceQueries) {
  Instance inst = InstanceBuilder().add(0.4, 0, 3).add(0.5, 1, 2).build();
  StepFunction profile = totalSizeProfile(inst);
  for (Time t : {0.5, 1.5, 2.5, 3.5}) {
    EXPECT_NEAR(profile.valueAt(t), inst.totalSizeAt(t), 1e-12) << t;
  }
}

// The sweep-built profile against one built by add() per item, and the
// bounds against the stream engine's incremental Proposition 3 bound:
// sparse and dense loads, and flavor sizes whose totals hit integers
// (where the ceiling's snapping decides).
std::vector<Instance> profileInstances() {
  std::vector<Instance> out;
  WorkloadSpec sparse;
  sparse.numItems = 400;
  sparse.mu = 8.0;
  out.push_back(generateWorkload(sparse, 1));
  WorkloadSpec dense;
  dense.numItems = 3000;
  dense.mu = 16.0;
  dense.arrivalRate = 64.0;
  dense.minSize = 0.01;
  dense.maxSize = 0.1;
  out.push_back(generateWorkload(dense, 2));
  WorkloadSpec flavors = dense;
  flavors.sizes = SizeDist::kFlavors;
  out.push_back(generateWorkload(flavors, 3));
  return out;
}

TEST(LowerBounds, TotalSizeProfileMatchesAddBuiltOracle) {
  for (const Instance& inst : profileInstances()) {
    StepFunction oracle;
    for (const Item& r : inst.items()) oracle.add(r.interval, r.size);
    StepFunction profile = totalSizeProfile(inst);
    ASSERT_EQ(profile.breakpoints(), oracle.breakpoints());
    std::vector<StepFunction::Segment> got = profile.segments();
    std::vector<StepFunction::Segment> want = oracle.segments();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].interval, want[i].interval);
      EXPECT_NEAR(got[i].value, want[i].value, 1e-9);
    }
    LowerBounds lb = lowerBounds(inst);
    EXPECT_EQ(lb.span, oracle.supportMeasure(kSizeEps));
    double want3 = oracle.ceilIntegral(kSizeEps);
    EXPECT_NEAR(lb.ceilIntegral, want3, 1e-9 * std::max(1.0, want3));
  }
}

TEST(LowerBounds, CeilIntegralMatchesStreamIncrementalBound) {
  for (const Instance& inst : profileInstances()) {
    InstanceArrivalSource source(inst);
    PolicyPtr policy = makePolicy("ff");
    StreamResult stream = simulateStream(source, *policy);
    double lb3 = lowerBounds(inst).ceilIntegral;
    EXPECT_NEAR(stream.lb3, lb3, 1e-9 * std::max(1.0, lb3));
  }
}

// Proposition ordering LB1, LB2 <= LB3 on random workloads.
class LowerBoundOrdering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LowerBoundOrdering, CeilIntegralDominates) {
  WorkloadSpec spec;
  spec.numItems = 200;
  spec.mu = 8.0;
  Instance inst = generateWorkload(spec, GetParam());
  LowerBounds lb = lowerBounds(inst);
  EXPECT_LE(lb.demand, lb.ceilIntegral + 1e-6);
  EXPECT_LE(lb.span, lb.ceilIntegral + 1e-6);
  EXPECT_GT(lb.ceilIntegral, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LowerBoundOrdering,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 99, 12345));

}  // namespace
}  // namespace cdbp
