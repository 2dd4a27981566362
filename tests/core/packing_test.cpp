#include "core/packing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/bin_timeline.hpp"
#include "core/epsilon.hpp"
#include "offline/ddff.hpp"
#include "offline/dual_coloring.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace cdbp {
namespace {

Instance smallInstance() {
  return InstanceBuilder()
      .add(0.5, 0, 4)
      .add(0.5, 1, 3)
      .add(0.75, 2, 5)
      .build();
}

TEST(Packing, TotalUsageSumsBinSpans) {
  Instance inst = smallInstance();
  // Items 0,1 share bin 0 (span 4); item 2 alone in bin 1 (span 3).
  Packing packing(inst, {0, 0, 1});
  EXPECT_DOUBLE_EQ(packing.binUsage(0), 4.0);
  EXPECT_DOUBLE_EQ(packing.binUsage(1), 3.0);
  EXPECT_DOUBLE_EQ(packing.totalUsage(), 7.0);
  EXPECT_EQ(packing.numBins(), 2u);
}

TEST(Packing, ValidAssignmentPassesValidation) {
  Instance inst = smallInstance();
  Packing packing(inst, {0, 0, 1});
  EXPECT_FALSE(packing.validate().has_value());
}

TEST(Packing, OverfullBinFailsValidation) {
  Instance inst = smallInstance();
  // Items 1 (0.5) and 2 (0.75) overlap on [2,3): level 1.25.
  Packing packing(inst, {0, 1, 1});
  auto error = packing.validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("exceeds capacity"), std::string::npos);
}

TEST(Packing, UnassignedItemFailsValidation) {
  Instance inst = smallInstance();
  Packing packing(inst, {0, kUnassigned, 1});
  auto error = packing.validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("unassigned"), std::string::npos);
}

TEST(Packing, SparseBinIdsFailValidation) {
  Instance inst = smallInstance();
  Packing packing(inst, {0, 0, 2});  // bin 1 never used
  auto error = packing.validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("not dense"), std::string::npos);
}

TEST(Packing, MismatchedAssignmentSizeThrows) {
  Instance inst = smallInstance();
  EXPECT_THROW(Packing(inst, {0, 0}), std::invalid_argument);
}

TEST(Packing, OpenBinsAtFollowsBusyPeriods) {
  Instance inst = smallInstance();
  Packing packing(inst, {0, 0, 1});
  EXPECT_EQ(packing.openBinsAt(0.5), 1u);
  EXPECT_EQ(packing.openBinsAt(2.5), 2u);
  EXPECT_EQ(packing.openBinsAt(4.5), 1u);
  EXPECT_EQ(packing.openBinsAt(6.0), 0u);
  EXPECT_EQ(packing.maxConcurrentBins(), 2u);
}

TEST(Packing, OpenBinProfileIntegralEqualsTotalUsage) {
  Instance inst = smallInstance();
  Packing packing(inst, {0, 1, 2});
  EXPECT_NEAR(packing.openBinProfile().integral(), packing.totalUsage(), 1e-9);
}

TEST(Packing, AverageUtilizationIsDemandOverUsage) {
  Instance inst = InstanceBuilder().add(0.5, 0, 2).build();
  Packing packing(inst, {0});
  EXPECT_DOUBLE_EQ(packing.averageUtilization(), 0.5);
}

TEST(Packing, EmptyInstanceHasZeroUsage) {
  Instance inst;
  Packing packing(inst, {});
  EXPECT_DOUBLE_EQ(packing.totalUsage(), 0.0);
  EXPECT_EQ(packing.numBins(), 0u);
  EXPECT_FALSE(packing.validate().has_value());
}

TEST(Packing, ValidateRejectsOverCapacityBeyondTolerance) {
  Instance inst =
      InstanceBuilder().add(0.5, 0, 2).add(0.5 + 4 * kSizeEps, 1, 3).build();
  auto error = Packing(inst, {0, 0}).validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("exceeds capacity"), std::string::npos);
}

TEST(Packing, ValidateAcceptsOverCapacityWithinTolerance) {
  Instance inst =
      InstanceBuilder().add(0.5, 0, 2).add(0.5 + kSizeEps / 2, 1, 3).build();
  EXPECT_FALSE(Packing(inst, {0, 0}).validate().has_value());
}

TEST(Packing, ValidateDoesNotAddUpItemsThatOnlyTouch) {
  // Listed against arrival order; each departs as the next arrives.
  Instance inst = InstanceBuilder()
                      .add(0.75, 4, 5)
                      .add(0.75, 2, 4)
                      .add(0.75, 0, 2)
                      .build();
  Packing packing(inst, {0, 0, 0});
  EXPECT_FALSE(packing.validate().has_value());
  ASSERT_EQ(packing.bin(0).busyPeriods().parts().size(), 1u);
  EXPECT_EQ(packing.bin(0).busyPeriods().parts()[0], Interval(0, 5));
  EXPECT_EQ(packing.bin(0).items(), (std::vector<ItemId>{0, 1, 2}));
}

// The instance with its items in a random order (ids follow the new order),
// so ids no longer increase with arrival time.
Instance shuffled(const Instance& inst, std::uint64_t seed) {
  std::vector<Item> items = inst.items();
  Rng rng(seed);
  std::shuffle(items.begin(), items.end(), rng.engine());
  return Instance(std::move(items));
}

bool inArrivalOrder(const Instance& inst) {
  return std::is_sorted(inst.items().begin(), inst.items().end(),
                        [](const Item& a, const Item& b) {
                          return a.arrival() < b.arrival();
                        });
}

TEST(Packing, ValidateAcceptsOfflinePackingsOutOfArrivalOrder) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    WorkloadSpec spec;
    spec.numItems = 150;
    spec.mu = 8.0;
    Instance inst = shuffled(generateWorkload(spec, seed), seed);
    ASSERT_FALSE(inArrivalOrder(inst));
    Packing ddff = durationDescendingFirstFit(inst);
    EXPECT_FALSE(ddff.validate().has_value()) << "DDFF seed " << seed;
    DualColoringResult dc = dualColoring(inst);
    EXPECT_FALSE(dc.packing.validate().has_value()) << "DC seed " << seed;
  }
}

// validate() and the per-bin data against BinTimelines built from the same
// assignment, on random assignments that overflow about half the time.
TEST(Packing, ValidateAgreesWithBinTimelineOracle) {
  WorkloadSpec spec;
  spec.numItems = 40;
  spec.mu = 4.0;
  Rng rng(99);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::uint64_t trial = 0; trial < 60; ++trial) {
    Instance inst = shuffled(generateWorkload(spec, trial), trial);
    std::size_t numBins = 12 + rng.uniformInt(0, 24);
    std::vector<BinId> binOf(inst.size());
    for (std::size_t i = 0; i < inst.size(); ++i) {
      std::size_t b = i < numBins ? i : rng.uniformInt(0, numBins - 1);
      binOf[i] = static_cast<BinId>(b);
    }
    std::vector<BinTimeline> oracle(numBins);
    for (const Item& r : inst.items()) {
      oracle[static_cast<std::size_t>(binOf[r.id])].add(r);
    }
    bool overflow = false;
    Time usage = 0;
    for (const BinTimeline& bin : oracle) {
      overflow |= !leq(bin.peakLevel(), kBinCapacity);
      usage += bin.usage();
    }

    Packing packing(inst, binOf);
    EXPECT_EQ(packing.validate().has_value(), overflow) << "trial " << trial;
    (overflow ? rejected : accepted) += 1;
    EXPECT_EQ(packing.totalUsage(), usage) << "trial " << trial;
    for (std::size_t b = 0; b < numBins; ++b) {
      EXPECT_EQ(packing.bin(static_cast<BinId>(b)).busyPeriods(),
                oracle[b].busyPeriods());
      EXPECT_EQ(packing.bin(static_cast<BinId>(b)).items(), oracle[b].items());
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace cdbp
