#include "multidim/md_instance.hpp"

#include <gtest/gtest.h>

#include "core/instance.hpp"
#include "multidim/md_lower_bounds.hpp"
#include "multidim/md_packing.hpp"
#include "multidim/md_workload.hpp"

namespace cdbp {
namespace {

MdInstance twoDimInstance() {
  return MdInstanceBuilder()
      .add({0.5, 0.2}, 0, 4)
      .add({0.3, 0.6}, 1, 3)
      .add({0.1, 0.1}, 6, 8)
      .build();
}

TEST(MdInstance, ValidatesDimensionConsistency) {
  EXPECT_THROW(MdInstanceBuilder()
                   .add({0.5, 0.2}, 0, 1)
                   .add({0.5}, 0, 1)
                   .build(),
               InstanceError);
}

TEST(MdInstance, RejectsOutOfRangeCoordinates) {
  EXPECT_THROW(MdInstanceBuilder().add({1.5, 0.2}, 0, 1).build(), InstanceError);
  EXPECT_THROW(MdInstanceBuilder().add({-0.1, 0.2}, 0, 1).build(), InstanceError);
}

TEST(MdInstance, RejectsAllZeroDemand) {
  EXPECT_THROW(MdInstanceBuilder().add({0.0, 0.0}, 0, 1).build(), InstanceError);
}

TEST(MdInstance, AcceptsZeroInSomeDimensions) {
  MdInstance inst = MdInstanceBuilder().add({0.0, 0.5}, 0, 1).build();
  EXPECT_EQ(inst.size(), 1u);
}

TEST(MdInstance, RejectsInvalidInterval) {
  EXPECT_THROW(MdInstanceBuilder().add({0.5, 0.5}, 2, 2).build(), InstanceError);
}

TEST(MdInstance, DimensionProfiles) {
  MdInstance inst = twoDimInstance();
  StepFunction d0 = inst.dimensionProfile(0);
  StepFunction d1 = inst.dimensionProfile(1);
  EXPECT_DOUBLE_EQ(d0.valueAt(2), 0.8);
  EXPECT_DOUBLE_EQ(d1.valueAt(2), 0.8);
  EXPECT_DOUBLE_EQ(d0.valueAt(3.5), 0.5);
  EXPECT_DOUBLE_EQ(d1.valueAt(3.5), 0.2);
}

TEST(MdInstance, DimensionProfilesMatchAddBuiltOracle) {
  MdWorkloadSpec spec;
  spec.numItems = 600;
  MdInstance inst = generateMdWorkload(spec, 11);
  for (std::size_t d = 0; d < inst.dims(); ++d) {
    StepFunction oracle;
    for (const MdItem& r : inst.items()) oracle.add(r.interval, r.demand[d]);
    StepFunction profile = inst.dimensionProfile(d);
    ASSERT_EQ(profile.breakpoints(), oracle.breakpoints()) << "dim " << d;
    std::vector<StepFunction::Segment> got = profile.segments();
    std::vector<StepFunction::Segment> want = oracle.segments();
    ASSERT_EQ(got.size(), want.size()) << "dim " << d;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].interval, want[i].interval);
      EXPECT_NEAR(got[i].value, want[i].value, 1e-9);
    }
  }
}

TEST(MdInstance, SpanAndDurations) {
  MdInstance inst = twoDimInstance();
  EXPECT_DOUBLE_EQ(inst.span(), 4.0 + 2.0);
  EXPECT_DOUBLE_EQ(inst.minDuration(), 2.0);
  EXPECT_DOUBLE_EQ(inst.durationRatio(), 2.0);
}

TEST(MdLowerBounds, TakesMaxOverDimensions) {
  // Dim 0 is the bottleneck: three 0.6 items overlap; dim 1 is tiny.
  MdInstance inst = MdInstanceBuilder()
                        .add({0.6, 0.1}, 0, 1)
                        .add({0.6, 0.1}, 0, 1)
                        .add({0.6, 0.1}, 0, 1)
                        .build();
  MdLowerBounds lb = mdLowerBounds(inst);
  EXPECT_DOUBLE_EQ(lb.ceilIntegral, 2.0);  // ceil(1.8) = 2 bins for 1 unit
  EXPECT_DOUBLE_EQ(lb.span, 1.0);
  EXPECT_NEAR(lb.demand, 1.8, 1e-12);
  EXPECT_DOUBLE_EQ(lb.best(), 2.0);
}

TEST(MdPacking, UsageAndValidation) {
  MdInstance inst = twoDimInstance();
  MdPacking packing(inst, {0, 1, 0});
  EXPECT_DOUBLE_EQ(packing.binUsage(0), 4.0 + 2.0);
  EXPECT_DOUBLE_EQ(packing.binUsage(1), 2.0);
  EXPECT_DOUBLE_EQ(packing.totalUsage(), 8.0);
  EXPECT_FALSE(packing.validate().has_value());
}

TEST(MdPacking, DetectsPerDimensionOverflow) {
  // Items fit in dim 0 (0.5 + 0.3) but overflow dim 1 (0.6 + 0.6).
  MdInstance inst = MdInstanceBuilder()
                        .add({0.5, 0.6}, 0, 2)
                        .add({0.3, 0.6}, 0, 2)
                        .build();
  MdPacking packing(inst, {0, 0});
  auto error = packing.validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("dimension 1"), std::string::npos);
}

TEST(MdPacking, OpenBinsAt) {
  MdInstance inst = twoDimInstance();
  MdPacking packing(inst, {0, 1, 0});
  EXPECT_EQ(packing.openBinsAt(2.0), 2u);
  EXPECT_EQ(packing.openBinsAt(5.0), 0u);
  EXPECT_EQ(packing.openBinsAt(7.0), 1u);
}

}  // namespace
}  // namespace cdbp
