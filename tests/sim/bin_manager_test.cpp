#include "sim/bin_manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "multidim/resources.hpp"
#include "util/rng.hpp"

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

// Closed ids leave the open lists lazily; every read must still match a
// model that erases them eagerly, in opening order, on both engines.
TEST(BinManager, LazyClosesMatchAnEagerModel) {
  constexpr int kCategories = 4;
  for (bool indexed : {true, false}) {
    SCOPED_TRACE(indexed ? "indexed" : "linear");
    BinManager mgr(indexed);
    Rng rng(17);
    std::vector<BinId> open;
    std::map<int, std::vector<BinId>> byCategory;
    std::vector<int> items;  // per bin id, items currently held
    auto expectSameLists = [&] {
      ASSERT_EQ(mgr.openCount(), open.size());
      ASSERT_EQ(mgr.openBins(), open);
      // One category past the used ones: never opened, always empty.
      for (int c = 0; c <= kCategories; ++c) {
        ASSERT_EQ(mgr.openBins(c), byCategory[c]) << "category " << c;
      }
    };
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t op = rng.uniformInt(0, 9);
      if (op < 3 || open.empty()) {
        const int category = static_cast<int>(rng.uniformInt(0, kCategories - 1));
        const BinId b = mgr.openBin(category, static_cast<Time>(step));
        mgr.addItem(b, 0.125);
        open.push_back(b);
        byCategory[category].push_back(b);
        items.push_back(1);
      } else if (op < 5) {
        const BinId b = open[rng.uniformInt(0, open.size() - 1)];
        if (items[static_cast<std::size_t>(b)] < 8) {
          mgr.addItem(b, 0.125);
          ++items[static_cast<std::size_t>(b)];
        }
      } else if (op < 9) {
        const BinId b = open[rng.uniformInt(0, open.size() - 1)];
        const bool closes = --items[static_cast<std::size_t>(b)] == 0;
        ASSERT_EQ(mgr.removeItem(b, 0.125), closes);
        if (closes) {
          open.erase(std::find(open.begin(), open.end(), b));
          auto& list = byCategory[mgr.info(b).category];
          list.erase(std::find(list.begin(), list.end(), b));
        }
      } else {
        expectSameLists();
      }
    }
    expectSameLists();
  }
}

// The open lists hold at most twice their open bins, so their bytes follow
// the peak of open bins, not the bins ever opened. `churn` keeps up to
// kPeak bins open while opening kBins and never reads its lists;
// `baseline` opens the same bins in the same categories but closes each
// at once, so the per-bin metadata and the category map cancel in the
// difference.
TEST(BinManager, OpenListBytesFollowOpenBinsNotBinsOpened) {
  constexpr int kBins = 20000;
  constexpr int kCategories = 3;
  constexpr std::size_t kPeak = 16;
  BinManager churn(false);
  BinManager baseline(false);
  std::vector<BinId> live;
  for (int i = 0; i < kBins; ++i) {
    const int category = i % kCategories;
    const BinId b = churn.openBin(category, static_cast<Time>(i));
    churn.addItem(b, 0.5);
    live.push_back(b);
    if (live.size() > kPeak) {
      ASSERT_TRUE(churn.removeItem(live.front(), 0.5));
      live.erase(live.begin());
    }
    const BinId once = baseline.openBin(category, static_cast<Time>(i));
    baseline.addItem(once, 0.5);
    ASSERT_TRUE(baseline.removeItem(once, 0.5));
    // Reads compact, so the baseline's lists stay at most one id long.
    ASSERT_TRUE(baseline.openBins().empty());
    ASSERT_TRUE(baseline.openBins(category).empty());
  }
  ASSERT_EQ(churn.binsOpened(), baseline.binsOpened());
  EXPECT_EQ(churn.openCount(), kPeak);
  EXPECT_EQ(baseline.openCount(), 0u);
  // Each list (all bins, and one per category) holds at most 2 (kPeak + 1)
  // ids; growth by doubling at most doubles that again.
  const std::size_t listBound =
      4 * (kPeak + 1) * (1 + kCategories) * sizeof(BinId);
  EXPECT_LE(churn.residentBytes(), baseline.residentBytes() + listBound);
}

}  // namespace
}  // namespace cdbp
