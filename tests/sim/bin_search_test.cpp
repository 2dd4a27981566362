// Unit tests for the capacity-indexed bin search (MinLevelTree +
// BinSearchIndex): leftmost tie-breaking, epsilon-boundary fits, slot
// growth, and category churn. The differential suite
// (tests/integration/placement_differential_test.cpp) pins the indexed
// engine against the linear scan end to end; these tests pin the data
// structure in isolation.
#include "sim/bin_search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/epsilon.hpp"
#include "core/types.hpp"
#include "util/rng.hpp"

namespace cdbp {
namespace {

TEST(MinLevelTree, AppendAssignsDenseSlots) {
  MinLevelTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.append(0.5), 0u);
  EXPECT_EQ(tree.append(0.2), 1u);
  EXPECT_EQ(tree.append(0.9), 2u);
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_DOUBLE_EQ(tree.levelAt(0), 0.5);
  EXPECT_DOUBLE_EQ(tree.levelAt(1), 0.2);
  EXPECT_DOUBLE_EQ(tree.levelAt(2), 0.9);
}

TEST(MinLevelTree, FirstFitReturnsLeftmostFittingSlot) {
  MinLevelTree tree;
  tree.append(0.9);   // slot 0: only 0.1 headroom
  tree.append(0.5);   // slot 1: fits 0.5
  tree.append(0.1);   // slot 2: fits more, but slot 1 is leftmost
  EXPECT_EQ(tree.firstFit(0.5), 1u);
  EXPECT_EQ(tree.firstFit(0.05), 0u);
  EXPECT_EQ(tree.firstFit(0.6), 2u);
  EXPECT_EQ(tree.firstFit(0.95), MinLevelTree::npos);
}

TEST(MinLevelTree, FirstFitBreaksTiesLeft) {
  MinLevelTree tree;
  for (int i = 0; i < 5; ++i) tree.append(0.5);
  EXPECT_EQ(tree.firstFit(0.5), 0u);
  tree.close(0);
  EXPECT_EQ(tree.firstFit(0.5), 1u);
}

TEST(MinLevelTree, MinSlotPrefersLeftmostMinimum) {
  MinLevelTree tree;
  tree.append(0.7);
  tree.append(0.3);
  tree.append(0.3);  // same minimum as slot 1 — slot 1 wins
  EXPECT_EQ(tree.minSlot(), 1u);
  tree.update(1, 0.8);
  EXPECT_EQ(tree.minSlot(), 2u);
}

TEST(MinLevelTree, ClosedSlotsAreInvisible) {
  MinLevelTree tree;
  tree.append(0.1);
  tree.append(0.2);
  tree.close(0);
  tree.close(1);
  EXPECT_EQ(tree.firstFit(0.1), MinLevelTree::npos);
  EXPECT_EQ(tree.minSlot(), MinLevelTree::npos);
  EXPECT_EQ(tree.levelAt(0), MinLevelTree::kClosed);
}

TEST(MinLevelTree, GrowthPreservesLevelsAndAnswers) {
  // Push well past the initial capacity so the backing array doubles
  // several times; every level must survive the rebuilds.
  MinLevelTree tree;
  const std::size_t n = 300;
  for (std::size_t i = 0; i < n; ++i) {
    tree.append(static_cast<Size>(i % 10) / 10.0);
  }
  ASSERT_EQ(tree.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(tree.levelAt(i), static_cast<Size>(i % 10) / 10.0);
  }
  // Leftmost slot with level <= 0.5 that fits size 0.5 is slot 0 (level 0).
  EXPECT_EQ(tree.firstFit(0.5), 0u);
  // Close the first decade; the next zero-level slot is slot 10.
  for (std::size_t i = 0; i < 10; ++i) tree.close(i);
  EXPECT_EQ(tree.firstFit(1.0), 10u);
  EXPECT_EQ(tree.minSlot(), 10u);
}

TEST(MinLevelTree, EpsilonBoundaryMatchesFitsCapacity) {
  // The descent must use the exact fitsCapacity tolerance: a level that
  // overshoots capacity by less than kSizeEps still fits, one that
  // overshoots by more does not.
  MinLevelTree just;
  just.append(0.6);
  EXPECT_TRUE(fitsCapacity(0.6, 0.4 + kSizeEps / 2));
  EXPECT_EQ(just.firstFit(0.4 + kSizeEps / 2), 0u);
  EXPECT_FALSE(fitsCapacity(0.6, 0.4 + 10 * kSizeEps));
  EXPECT_EQ(just.firstFit(0.4 + 10 * kSizeEps), MinLevelTree::npos);
}

TEST(BinSearchIndex, QueriesEmptyIndexReturnNewBin) {
  BinSearchIndex index;
  EXPECT_EQ(index.firstFit(0.5), kNewBin);
  EXPECT_EQ(index.bestFit(0.5), kNewBin);
  EXPECT_EQ(index.worstFit(0.5), kNewBin);
  EXPECT_EQ(index.firstFitIn(3, 0.5), kNewBin);
  EXPECT_EQ(index.bestFitIn(3, 0.5), kNewBin);
  EXPECT_EQ(index.worstFitIn(3, 0.5), kNewBin);
}

TEST(BinSearchIndex, FirstBestWorstAgreeWithDefinitions) {
  BinSearchIndex index;
  index.onOpen(0, 0);
  index.onLevelChange(0, 0.7);
  index.onOpen(1, 0);
  index.onLevelChange(1, 0.4);
  index.onOpen(2, 0);
  index.onLevelChange(2, 0.2);

  // size 0.5: bin 0 (level .7) does not fit; leftmost fitting is bin 1.
  EXPECT_EQ(index.firstFit(0.5), 1);
  // Best Fit: fullest fitting bin = bin 1 (level .4 > .2).
  EXPECT_EQ(index.bestFit(0.5), 1);
  // Worst Fit: emptiest bin overall = bin 2.
  EXPECT_EQ(index.worstFit(0.5), 2);
  // size 0.25 fits everywhere: Best Fit now picks bin 0.
  EXPECT_EQ(index.firstFit(0.25), 0);
  EXPECT_EQ(index.bestFit(0.25), 0);
}

TEST(BinSearchIndex, BestFitBreaksLevelTiesByEarliestBin) {
  BinSearchIndex index;
  index.onOpen(0, 0);
  index.onLevelChange(0, 0.5);
  index.onOpen(1, 0);
  index.onLevelChange(1, 0.5);
  index.onOpen(2, 0);
  index.onLevelChange(2, 0.5);
  EXPECT_EQ(index.bestFit(0.3), 0);
  index.onClose(0);
  EXPECT_EQ(index.bestFit(0.3), 1);
}

TEST(BinSearchIndex, BestFitSkipsNonFittingLevelRuns) {
  // Several bins share a level that does not fit; the query must skip the
  // whole run and land on the fullest level that does.
  BinSearchIndex index;
  for (BinId id = 0; id < 4; ++id) {
    index.onOpen(id, 0);
    index.onLevelChange(id, 0.8);  // none of these fit size 0.3
  }
  index.onOpen(4, 0);
  index.onLevelChange(4, 0.6);
  index.onOpen(5, 0);
  index.onLevelChange(5, 0.1);
  EXPECT_EQ(index.bestFit(0.3), 4);
  index.onClose(4);
  EXPECT_EQ(index.bestFit(0.3), 5);
}

TEST(BinSearchIndex, EpsilonBoundaryFitsInAllThreeQueries) {
  BinSearchIndex index;
  index.onOpen(0, 0);
  index.onLevelChange(0, 0.6);
  Size justFits = 0.4 + kSizeEps / 2;
  Size tooBig = 0.4 + 10 * kSizeEps;
  EXPECT_EQ(index.firstFit(justFits), 0);
  EXPECT_EQ(index.bestFit(justFits), 0);
  EXPECT_EQ(index.worstFit(justFits), 0);
  EXPECT_EQ(index.firstFit(tooBig), kNewBin);
  EXPECT_EQ(index.bestFit(tooBig), kNewBin);
  EXPECT_EQ(index.worstFit(tooBig), kNewBin);
}

TEST(BinSearchIndex, CategoryScopesAreIndependent) {
  BinSearchIndex index;
  index.onOpen(0, 7);
  index.onLevelChange(0, 0.2);
  index.onOpen(1, 9);
  index.onLevelChange(1, 0.1);

  EXPECT_EQ(index.firstFitIn(7, 0.5), 0);
  EXPECT_EQ(index.firstFitIn(9, 0.5), 1);
  EXPECT_EQ(index.firstFitIn(8, 0.5), kNewBin);
  // The global scope sees both; bin 0 is leftmost, bin 1 is emptiest.
  EXPECT_EQ(index.firstFit(0.5), 0);
  EXPECT_EQ(index.worstFit(0.5), 1);
}

TEST(BinSearchIndex, CategoryChurnRoutesToFreshBins) {
  // Open and close bins of the same category repeatedly: closed slots must
  // stay invisible and new bins (new dense ids) must be found, including
  // by an already-materialized Best Fit set.
  BinSearchIndex index;
  BinId next = 0;
  for (int round = 0; round < 5; ++round) {
    BinId a = next++;
    BinId b = next++;
    index.onOpen(a, 42);
    index.onLevelChange(a, 0.5);
    index.onOpen(b, 42);
    index.onLevelChange(b, 0.3);
    EXPECT_EQ(index.firstFitIn(42, 0.4), a);
    EXPECT_EQ(index.bestFitIn(42, 0.4), a);
    EXPECT_EQ(index.worstFitIn(42, 0.4), b);
    index.onClose(a);
    EXPECT_EQ(index.firstFitIn(42, 0.4), b);
    EXPECT_EQ(index.bestFitIn(42, 0.4), b);
    index.onClose(b);
    EXPECT_EQ(index.firstFitIn(42, 0.4), kNewBin);
    EXPECT_EQ(index.bestFitIn(42, 0.4), kNewBin);
    EXPECT_EQ(index.worstFitIn(42, 0.4), kNewBin);
  }
}

TEST(BinSearchIndex, LevelChangesKeepBestFitSetCurrent) {
  BinSearchIndex index;
  index.onOpen(0, 0);
  index.onLevelChange(0, 0.3);
  index.onOpen(1, 0);
  index.onLevelChange(1, 0.2);
  EXPECT_EQ(index.bestFit(0.5), 0);  // materializes the set
  // Items arrive and depart: the incremental maintenance must track.
  index.onLevelChange(1, 0.45);
  EXPECT_EQ(index.bestFit(0.5), 1);
  index.onLevelChange(1, 0.05);
  EXPECT_EQ(index.bestFit(0.5), 0);
  index.onLevelChange(0, 0.9);
  EXPECT_EQ(index.bestFit(0.5), 1);
}

// --- Compaction: slots are positions in opening order, and a scope whose
// tree is full while at most half open drops its closed slots instead of
// doubling.

TEST(MinLevelTree, CompactionKeepsOpenSlotsInOrder) {
  MinLevelTree tree;
  for (int i = 0; i < 8; ++i) tree.append(0.1 * i);
  for (std::size_t slot : {0u, 2u, 3u, 5u, 6u}) tree.close(slot);
  ASSERT_EQ(tree.capacity(), 8u);
  ASSERT_EQ(tree.openCount(), 3u);
  EXPECT_TRUE(tree.wantsCompaction());

  std::vector<std::pair<std::size_t, std::size_t>> moves;
  tree.compact([&](std::size_t from, std::size_t to) {
    moves.emplace_back(from, to);
  });
  const std::vector<std::pair<std::size_t, std::size_t>> want = {
      {1, 0}, {4, 1}, {7, 2}};
  EXPECT_EQ(moves, want);
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree.openCount(), 3u);
  EXPECT_EQ(tree.capacity(), 8u);  // bit_ceil(2 * 3)
  EXPECT_DOUBLE_EQ(tree.levelAt(0), 0.1);
  EXPECT_DOUBLE_EQ(tree.levelAt(1), 0.4);
  EXPECT_DOUBLE_EQ(tree.levelAt(2), 0.1 * 7);
  EXPECT_EQ(tree.firstFit(0.5), 0u);
  EXPECT_EQ(tree.minSlot(), 0u);
  tree.update(0, 0.9);
  EXPECT_EQ(tree.firstFit(0.5), 1u);
  EXPECT_EQ(tree.minSlot(), 1u);
  EXPECT_EQ(tree.append(0.0), 3u);
  EXPECT_EQ(tree.minSlot(), 3u);
}

TEST(MinLevelTree, CompactionRuleNeedsAFullTreeAtMostHalfOpen) {
  MinLevelTree tree;
  for (int i = 0; i < 4; ++i) tree.append(0.5);
  EXPECT_FALSE(tree.wantsCompaction());  // full, all open: double instead
  tree.close(0);
  EXPECT_FALSE(tree.wantsCompaction());  // 3 of 4 open
  tree.close(1);
  EXPECT_TRUE(tree.wantsCompaction());  // 2 of 4 open
  tree.compact([](std::size_t, std::size_t) {});
  EXPECT_EQ(tree.capacity(), 4u);
  EXPECT_FALSE(tree.wantsCompaction());  // not full any more
  tree.close(0);
  tree.close(1);
  tree.compact([](std::size_t, std::size_t) {});
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.capacity(), 1u);
  EXPECT_EQ(tree.firstFit(0.1), MinLevelTree::npos);
  EXPECT_EQ(tree.minSlot(), MinLevelTree::npos);
  EXPECT_EQ(tree.append(0.25), 0u);
  EXPECT_EQ(tree.firstFit(0.1), 0u);
}

TEST(BinSearchIndex, TiesGoToTheEarliestOpenedBinAcrossACompaction) {
  BinSearchIndex index;
  for (BinId id = 0; id < 8; ++id) {
    index.onOpen(id, 0);
    index.onLevelChange(id, 0.5);
  }
  EXPECT_EQ(index.bestFit(0.5), 0);  // materialize the Best Fit set too
  ASSERT_EQ(index.slotCapacity(), 8u);
  for (BinId id = 0; id < 6; ++id) index.onClose(id);
  // The tree is full with 2 of 8 slots open: opening bin 8 compacts, and
  // bins 6 and 7 move to slots 0 and 1 ahead of it.
  index.onOpen(8, 0);
  index.onLevelChange(8, 0.5);
  EXPECT_EQ(index.slotCapacity(), 4u);
  EXPECT_EQ(index.slotCapacityIn(0), 4u);
  EXPECT_EQ(index.firstFit(0.5), 6);
  EXPECT_EQ(index.bestFit(0.5), 6);
  EXPECT_EQ(index.worstFit(0.5), 6);
  EXPECT_EQ(index.firstFitIn(0, 0.5), 6);
  EXPECT_EQ(index.worstFitIn(0, 0.5), 6);
  index.onLevelChange(6, 0.75);
  EXPECT_EQ(index.firstFit(0.5), 7);
  EXPECT_EQ(index.worstFit(0.5), 7);
  EXPECT_EQ(index.bestFit(0.25), 6);
  index.onClose(7);
  EXPECT_EQ(index.firstFit(0.5), 8);
  EXPECT_EQ(index.worstFitIn(0, 0.1), 8);
}

TEST(BinSearchIndex, SecondCategoryGivesTheFirstItsOwnScope) {
  // While every bin has category 5, category-5 queries read the global
  // scope. The first bin of category 6 gives category 5 its own scope,
  // which must hold the same open bins, in the same order, at the same
  // levels, and follow later changes.
  BinSearchIndex index;
  const Size levels[] = {0.5, 0.6, 0.7, 0.5, 0.6, 0.7};
  for (BinId id = 0; id < 6; ++id) {
    index.onOpen(id, 5);
    index.onLevelChange(id, levels[id]);
  }
  EXPECT_EQ(index.bestFitIn(5, 0.3), 2);  // materializes the Best Fit set
  EXPECT_EQ(index.slotCapacityIn(5), index.slotCapacity());
  EXPECT_EQ(index.slotCapacityIn(6), 0u);
  index.onClose(0);
  index.onClose(2);
  index.onOpen(6, 6);
  index.onLevelChange(6, 0.2);
  EXPECT_EQ(index.firstFitIn(5, 0.45), 3);
  EXPECT_EQ(index.bestFitIn(5, 0.3), 5);
  EXPECT_EQ(index.worstFitIn(5, 0.3), 3);
  EXPECT_EQ(index.firstFitIn(6, 0.5), 6);
  EXPECT_EQ(index.firstFit(0.45), 3);
  EXPECT_EQ(index.worstFit(0.1), 6);
  index.onLevelChange(3, 0.9);
  EXPECT_EQ(index.firstFitIn(5, 0.45), kNewBin);
  EXPECT_EQ(index.bestFitIn(5, 0.3), 5);
  EXPECT_EQ(index.worstFitIn(5, 0.3), 1);  // 1 and 4 tie at 0.6
  for (BinId id : {1, 3, 4, 5}) index.onClose(id);
  EXPECT_EQ(index.slotCapacityIn(5), 0u);
  EXPECT_EQ(index.firstFitIn(5, 0.1), kNewBin);
  EXPECT_EQ(index.firstFitIn(6, 0.1), 6);
  EXPECT_GT(index.slotCapacityIn(6), 0u);
}

// Linear reference over the open bins in opening order: the definitions
// the policies' scans implement (ties to the earliest-opened bin).
struct OpenBin {
  BinId id;
  int category;
  Size level;
};

BinId linearFirst(const std::vector<OpenBin>& open, int category, Size d) {
  for (const OpenBin& b : open) {
    if ((category < 0 || b.category == category) && fitsCapacity(b.level, d)) {
      return b.id;
    }
  }
  return kNewBin;
}

BinId linearBest(const std::vector<OpenBin>& open, int category, Size d) {
  BinId best = kNewBin;
  Size bestLevel = -1;
  for (const OpenBin& b : open) {
    if ((category < 0 || b.category == category) &&
        fitsCapacity(b.level, d) && b.level > bestLevel) {
      bestLevel = b.level;
      best = b.id;
    }
  }
  return best;
}

BinId linearWorst(const std::vector<OpenBin>& open, int category, Size d) {
  BinId best = kNewBin;
  Size bestLevel = 2;
  for (const OpenBin& b : open) {
    if ((category < 0 || b.category == category) &&
        fitsCapacity(b.level, d) && b.level < bestLevel) {
      bestLevel = b.level;
      best = b.id;
    }
  }
  return best;
}

// Thousands of bins open and close while only a few dozen are open at
// once. Every answer must match the linear reference, and every scope's
// tree must stay within 4 * (its peak open count) + 1 leaf slots. Global
// queries start at step `globalFrom`; before that, once a second category
// has opened, the index keeps no global tree at all.
void churn(int globalFrom) {
  SCOPED_TRACE(testing::Message() << "global queries from step " << globalFrom);
  constexpr int kCategories = 3;
  Rng rng(17);
  BinSearchIndex index;
  std::vector<OpenBin> open;
  std::map<int, std::size_t> peakIn;
  std::size_t peak = 0;
  BinId next = 0;
  int firstCategory = 0;
  bool twoCategories = false;
  for (int step = 0; step < 40000; ++step) {
    const bool openOne =
        open.empty() || (open.size() < 40 && rng.chance(0.5)) ||
        (open.size() < 10 && rng.chance(0.8));
    if (openOne) {
      int category = static_cast<int>(rng.uniformInt(0, kCategories - 1));
      index.onOpen(next, category);
      if (next == 0) firstCategory = category;
      twoCategories = twoCategories || category != firstCategory;
      open.push_back({next, category, 0.0});
      ++next;
    } else {
      auto it = open.begin() +
                static_cast<std::ptrdiff_t>(rng.uniformInt(0, open.size() - 1));
      if (rng.chance(0.5)) {
        index.onClose(it->id);
        open.erase(it);
      } else {
        it->level = 0.05 * static_cast<double>(rng.uniformInt(0, 19));
        index.onLevelChange(it->id, it->level);
      }
    }
    peak = std::max(peak, open.size());
    for (int c = 0; c < kCategories; ++c) {
      std::size_t inCategory = static_cast<std::size_t>(std::count_if(
          open.begin(), open.end(),
          [c](const OpenBin& b) { return b.category == c; }));
      peakIn[c] = std::max(peakIn[c], inCategory);
      ASSERT_LE(index.slotCapacityIn(c), 4 * peakIn[c] + 1) << "step " << step;
    }
    ASSERT_LE(index.slotCapacity(), 4 * peak + 1) << "step " << step;
    if (step < globalFrom && twoCategories) {
      ASSERT_EQ(index.slotCapacity(), 0u) << "step " << step;
    }

    Size demand = 0.05 * static_cast<double>(rng.uniformInt(1, 20));
    if (step >= globalFrom) {
      ASSERT_EQ(index.firstFit(demand), linearFirst(open, -1, demand))
          << "step " << step;
      ASSERT_EQ(index.bestFit(demand), linearBest(open, -1, demand))
          << "step " << step;
      ASSERT_EQ(index.worstFit(demand), linearWorst(open, -1, demand))
          << "step " << step;
    }
    int c = static_cast<int>(rng.uniformInt(0, kCategories - 1));
    ASSERT_EQ(index.firstFitIn(c, demand), linearFirst(open, c, demand));
    ASSERT_EQ(index.bestFitIn(c, demand), linearBest(open, c, demand));
    ASSERT_EQ(index.worstFitIn(c, demand), linearWorst(open, c, demand));
  }
  // The run opened far more bins than the trees hold.
  EXPECT_GT(static_cast<std::size_t>(next), 20 * (4 * peak + 1));
}

TEST(BinSearchIndex, ChurnKeepsEveryScopeSizedByItsPeakOpenCount) {
  churn(/*globalFrom=*/0);
  // The global tree is rebuilt only at step 20000, after many compactions
  // and category-scope drops.
  churn(/*globalFrom=*/20000);
}

}  // namespace
}  // namespace cdbp
