#include "multidim/md_instance.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/epsilon.hpp"
#include "core/instance.hpp"
#include "multidim/md_lower_bounds.hpp"
#include "multidim/md_packing.hpp"
#include "multidim/md_workload.hpp"
#include "util/rng.hpp"

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

// The add()-built oracle MdPacking used to keep: per bin a busy set and a
// per-dimension level StepFunction, each grown one item at a time.
struct MdPackingOracle {
  std::vector<IntervalSet> busy;
  std::vector<std::vector<StepFunction>> level;

  MdPackingOracle(const MdInstance& inst, const std::vector<BinId>& binOf,
                  std::size_t numBins)
      : busy(numBins), level(numBins, std::vector<StepFunction>(inst.dims())) {
    for (const MdItem& r : inst.items()) {
      auto b = static_cast<std::size_t>(binOf[r.id]);
      busy[b].add(r.interval);
      for (std::size_t d = 0; d < inst.dims(); ++d) {
        level[b][d].add(r.interval, r.demand[d]);
      }
    }
  }

  Time totalUsage() const {
    Time total = 0;
    for (const IntervalSet& set : busy) total += set.measure();
    return total;
  }

  std::size_t openBinsAt(Time t) const {
    std::size_t open = 0;
    for (const IntervalSet& set : busy) open += set.contains(t) ? 1 : 0;
    return open;
  }

  // The first overfilled (bin, dimension), as validate() reports it.
  std::optional<std::string> overflow() const {
    for (std::size_t b = 0; b < level.size(); ++b) {
      for (std::size_t d = 0; d < level[b].size(); ++d) {
        if (!leq(level[b][d].maxValue(), kBinCapacity)) {
          return "bin " + std::to_string(b) + " dimension " + std::to_string(d);
        }
      }
    }
    return std::nullopt;
  }
};

void expectMatchesOracle(const MdInstance& inst, std::vector<BinId> binOf,
                         std::size_t numBins) {
  MdPackingOracle oracle(inst, binOf, numBins);
  MdPacking packing(inst, std::move(binOf));
  ASSERT_EQ(packing.numBins(), numBins);
  EXPECT_EQ(packing.totalUsage(), oracle.totalUsage());
  // Integer grid times: probe every breakpoint and every midpoint.
  for (double t = -0.5; t <= 24.0; t += 0.5) {
    EXPECT_EQ(packing.openBinsAt(t), oracle.openBinsAt(t)) << "t=" << t;
  }
  std::optional<std::string> error = packing.validate();
  std::optional<std::string> want = oracle.overflow();
  ASSERT_EQ(error.has_value(), want.has_value())
      << (error ? *error : std::string("valid")) << " vs "
      << (want ? *want : std::string("valid"));
  if (want) {
    EXPECT_EQ(error->rfind(*want + " exceeds capacity", 0), 0u) << *error;
  }
}

TEST(MdPacking, SweepValidateMatchesAddBuiltOracle) {
  // Integer arrivals and durations make touching intervals common, and
  // demands in eighths make every level sum exact, so the sweep and the
  // oracle must agree on the verdict and on the failing (bin, dimension).
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const std::size_t dims = 2 + seed % 2;
    const std::size_t numBins = 1 + seed % 5;
    const std::size_t n = numBins + rng.uniformInt(0, 30);
    MdInstanceBuilder builder;
    std::vector<BinId> binOf;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> demand(dims);
      for (double& value : demand) {
        value = static_cast<double>(rng.uniformInt(1, 4)) / 8.0;
      }
      auto arrival = static_cast<double>(rng.uniformInt(0, 20));
      auto duration = static_cast<double>(rng.uniformInt(1, 3));
      builder.add(Resources(demand), arrival, arrival + duration);
      // Every bin gets one item first, so bin ids are dense.
      binOf.push_back(static_cast<BinId>(
          i < numBins ? i : rng.uniformInt(0, numBins - 1)));
    }
    expectMatchesOracle(builder.build(), binOf, numBins);
  }
}

TEST(MdPacking, TouchingItemsNeverAddUpButOverlapsDo) {
  // Dimension 1 would read 1.25 if [0,2) and [2,4) were summed at t=2.
  MdInstance touching = MdInstanceBuilder()
                            .add({0.25, 0.75}, 0, 2)
                            .add({0.25, 0.5}, 2, 4)
                            .add({0.25, 0.25}, 1, 2)
                            .build();
  expectMatchesOracle(touching, {0, 0, 0}, 1);
  EXPECT_FALSE(MdPacking(touching, {0, 0, 0}).validate().has_value());

  // One overfilled dimension, in the second bin only.
  MdInstance overfilled = MdInstanceBuilder()
                              .add({0.5, 0.5}, 0, 4)
                              .add({0.25, 0.75}, 1, 3)
                              .add({0.25, 0.5}, 2, 5)
                              .build();
  expectMatchesOracle(overfilled, {0, 1, 1}, 2);
  std::optional<std::string> error =
      MdPacking(overfilled, {0, 1, 1}).validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->rfind("bin 1 dimension 1 exceeds capacity", 0), 0u)
      << *error;
}

}  // namespace
}  // namespace cdbp
