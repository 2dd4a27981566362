#include "sim/bin_manager.hpp"

#include <gtest/gtest.h>

#include "multidim/resources.hpp"

namespace cdbp {
namespace {

TEST(BinManager, OpensBinsWithSequentialIds) {
  BinManager mgr;
  EXPECT_EQ(mgr.openBin(0, 0.0), 0);
  EXPECT_EQ(mgr.openBin(1, 0.5), 1);
  EXPECT_EQ(mgr.binsOpened(), 2u);
  EXPECT_EQ(mgr.openCount(), 2u);
}

TEST(BinManager, TracksLevelsAndCounts) {
  BinManager mgr;
  BinId b = mgr.openBin(0, 0.0);
  mgr.addItem(b, 0.3);
  mgr.addItem(b, 0.4);
  EXPECT_DOUBLE_EQ(mgr.info(b).level, 0.7);
  EXPECT_EQ(mgr.info(b).itemCount, 2u);
}

TEST(BinManager, FitsHonorsCapacity) {
  BinManager mgr;
  BinId b = mgr.openBin(0, 0.0);
  mgr.addItem(b, 0.7);
  EXPECT_TRUE(mgr.fits(b, 0.3));
  EXPECT_FALSE(mgr.fits(b, 0.31));
}

TEST(BinManager, BinClosesWhenLastItemLeaves) {
  BinManager mgr;
  BinId b = mgr.openBin(0, 0.0);
  mgr.addItem(b, 0.3);
  mgr.addItem(b, 0.4);
  EXPECT_FALSE(mgr.removeItem(b, 0.3));
  EXPECT_TRUE(mgr.removeItem(b, 0.4));
  EXPECT_FALSE(mgr.info(b).open);
  EXPECT_EQ(mgr.openCount(), 0u);
  EXPECT_FALSE(mgr.fits(b, 0.1));  // closed bins never fit
}

TEST(BinManagerDeathTest, ClosedBinRejectsMutation) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  BinManager mgr;
  BinId b = mgr.openBin(0, 0.0);
  mgr.addItem(b, 0.3);
  mgr.removeItem(b, 0.3);
  EXPECT_DEATH(mgr.addItem(b, 0.1), "is closed");
  EXPECT_DEATH(mgr.removeItem(b, 0.1), "is not holding items");
}

TEST(BinManager, LevelResidueFlushedOnClose) {
  BinManager mgr;
  BinId b = mgr.openBin(0, 0.0);
  // Accumulate float noise across many feasible add/remove pairs (0.009 is
  // inexact in binary; 100 of them stay within the unit capacity).
  for (int i = 0; i < 100; ++i) mgr.addItem(b, 0.009);
  for (int i = 0; i < 100; ++i) {
    bool closed = mgr.removeItem(b, 0.009);
    EXPECT_EQ(closed, i == 99);
  }
  EXPECT_DOUBLE_EQ(mgr.info(b).level, 0.0);
}

TEST(BinManager, PerCategoryOpenLists) {
  BinManager mgr;
  BinId a = mgr.openBin(7, 0.0);
  BinId b = mgr.openBin(3, 0.0);
  BinId c = mgr.openBin(7, 1.0);
  EXPECT_EQ(mgr.openBins(7), (std::vector<BinId>{a, c}));
  EXPECT_EQ(mgr.openBins(3), (std::vector<BinId>{b}));
  EXPECT_TRUE(mgr.openBins(42).empty());
  mgr.addItem(a, 0.5);
  mgr.removeItem(a, 0.5);
  EXPECT_EQ(mgr.openBins(7), (std::vector<BinId>{c}));
}

TEST(BinManager, OpenBinsPreservesOpeningOrderAfterClosures) {
  BinManager mgr;
  BinId a = mgr.openBin(0, 0.0);
  BinId b = mgr.openBin(0, 1.0);
  BinId c = mgr.openBin(0, 2.0);
  mgr.addItem(b, 0.2);
  mgr.removeItem(b, 0.2);  // closes b
  EXPECT_EQ(mgr.openBins(), (std::vector<BinId>{a, c}));
}

// --- Vector (multidim) instantiation of the same manager ---

using MdManager = BasicBinManager<VectorResource>;

MdManager mdManager(std::size_t dims, bool indexed = true) {
  return MdManager(indexed, VectorResource::Shape{dims});
}

TEST(MdBinManager, TracksVectorLevels) {
  MdManager mgr = mdManager(2);
  BinId b = mgr.openBin(0, 0.0);
  mgr.addItem(b, Resources({0.3, 0.5}));
  mgr.addItem(b, Resources({0.4, 0.1}));
  EXPECT_DOUBLE_EQ(mgr.info(b).level[0], 0.7);
  EXPECT_DOUBLE_EQ(mgr.info(b).level[1], 0.6);
  EXPECT_EQ(mgr.info(b).itemCount, 2u);
}

TEST(MdBinManager, FitsHonorsEveryDimension) {
  MdManager mgr = mdManager(2);
  BinId b = mgr.openBin(0, 0.0);
  mgr.addItem(b, Resources({0.7, 0.2}));
  EXPECT_TRUE(mgr.fits(b, Resources({0.3, 0.8})));
  EXPECT_FALSE(mgr.fits(b, Resources({0.31, 0.1})));  // dim 0 overflows
  EXPECT_FALSE(mgr.fits(b, Resources({0.1, 0.81})));  // dim 1 overflows
}

TEST(MdBinManager, BinClosesWhenLastItemLeaves) {
  for (bool indexed : {true, false}) {
    MdManager mgr = mdManager(3, indexed);
    BinId b = mgr.openBin(4, 0.0);
    Resources d({0.2, 0.3, 0.4});
    mgr.addItem(b, d);
    EXPECT_TRUE(mgr.removeItem(b, d));
    EXPECT_FALSE(mgr.info(b).open);
    EXPECT_EQ(mgr.openCount(), 0u);
    EXPECT_FALSE(mgr.fits(b, Resources({0.1, 0.1, 0.1})));
    EXPECT_TRUE(mgr.openBins(4).empty());
  }
}

TEST(MdBinManagerDeathTest, ClosedBinRejectsMutation) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  MdManager mgr = mdManager(2);
  BinId b = mgr.openBin(0, 0.0);
  Resources d({0.2, 0.2});
  mgr.addItem(b, d);
  mgr.removeItem(b, d);
  EXPECT_DEATH(mgr.addItem(b, d), "is closed");
  EXPECT_DEATH(mgr.removeItem(b, d), "is not holding items");
}

TEST(BinManager, ResidentBytesIncludeTheIndex) {
  BinManager indexed(true);
  BinManager linear(false);
  for (BinManager* mgr : {&indexed, &linear}) {
    for (int i = 0; i < 100; ++i) {
      BinId b = mgr->openBin(i % 3, static_cast<Time>(i));
      mgr->addItem(b, 0.5);
      if (i % 2 == 0) mgr->removeItem(b, 0.5);
    }
  }
  EXPECT_GT(linear.residentBytes(), 100 * sizeof(BinManager::BinInfo) - 1);
  EXPECT_GT(indexed.index().residentBytes(), 0u);
  EXPECT_EQ(indexed.residentBytes(),
            linear.residentBytes() + indexed.index().residentBytes());
}

}  // namespace
}  // namespace cdbp
