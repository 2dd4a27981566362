// Capacity-indexed bin search: the sublinear placement engine core,
// generic over a Resource model (sim/resource.hpp documents the concept).
//
// A BinSearchIndexT<R> answers the placement queries packing policies
// issue — "leftmost open bin that fits" (First Fit), and for ordered
// (scalar) levels "fullest fitting bin" (Best Fit) and "emptiest fitting
// bin" (Worst Fit) — in O(log B) instead of the O(B) open-list scan, for
// the global open set and for each policy category independently.
//
// First/Worst Fit ride on a min-level tournament tree (MinLevelTreeT):
// each internal node stores the R::assignMin-combination of its leaf
// range, closed slots hold R::closedLevel, which no demand fits. The
// descent uses the *same* R::fits predicate as the linear scan, on the
// same doubles:
//
//  * Ordered levels (scalar): fits is monotone in the level and the
//    subtree minimum is attained by a leaf, so "min fits" is exact — the
//    descent never backtracks and costs O(log B), exactly as in PR 3.
//  * Vector levels (multidim): the componentwise minimum need not be
//    attained by any single bin, so "min fits" is only a sound prune
//    ("false" proves no leaf fits). The descent backtracks left-first,
//    still returning the leftmost bin that *actually* fits — bit-identical
//    to the linear reference, with worst-case O(B) on adversarial level
//    mixes and O(log B) when the prune bites (DESIGN.md §10.2).
//
// Slots are positions in opening order, not bin ids. A scope whose tree is
// full while at most half its slots are open compacts instead of doubling:
// the open slots move down, in slot order, and the tree is rebuilt in one
// O(n) pass. Opening order survives, so every leftmost answer is unchanged,
// and each tree stays O(open bins) no matter how many bins the run has
// opened (DESIGN.md §9.1).
//
// Best Fit needs the *maximum* fitting level, which a min tree cannot
// localize; for ordered levels it uses a level-ordered set instead,
// materialized lazily so runs that never ask Best Fit queries pay zero set
// maintenance. Unordered models get the scored traversal minScoreFitIn
// (Dominant-Resource Fit) over the pruned fitting set in opening order.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "core/epsilon.hpp"
#include "core/types.hpp"
#include "sim/resource.hpp"
#include "util/check.hpp"

namespace cdbp {

/// Array-backed tournament (segment) tree over bin slots keyed by level.
/// Slots are handed out in append order; a closed slot is parked at
/// R::closedLevel, which no query can fit into, until compact() drops it.
template <typename R>
class MinLevelTreeT {
 public:
  using Level = typename R::Level;
  using Demand = typename R::Demand;
  using Shape = typename R::Shape;

  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  explicit MinLevelTreeT(Shape shape = {}) : shape_(shape) {}

  /// Appends an open slot at the given level; returns its index (dense, in
  /// append order). Never moves existing slots. Amortized O(log B): the
  /// backing array doubles when full.
  std::size_t append(const Level& level);

  /// Sets an open slot's level and re-sifts the path to the root. O(log B).
  void update(std::size_t slot, const Level& level);

  /// Parks a slot at the closed sentinel (the bin closed). O(log B).
  void close(std::size_t slot);

  /// True when the next append() would double a tree whose slots are at
  /// most half open: the point at which compact() should run instead.
  bool wantsCompaction() const {
    return cap_ > 0 && size_ == cap_ && 2 * open_ <= cap_;
  }

  /// Drops every closed slot. Open slots move down to 0..open-1 keeping
  /// their order, and onMove(from, to) reports each one (from >= to, in
  /// increasing order). The capacity shrinks to the smallest power of two
  /// holding twice the open slots, and the tree is rebuilt in one O(cap)
  /// pass. Run when wantsCompaction(), that is at least cap/2 appends after
  /// the previous rebuild, so the cost is O(1) amortized per append.
  template <typename OnMove>
  void compact(OnMove&& onMove);

  /// Leftmost slot whose level fits `demand` (the First Fit answer), or
  /// npos when no open slot fits. O(log B) for ordered levels; pruned DFS
  /// with backtracking otherwise (see the header comment).
  std::size_t firstFit(const Demand& demand) const;

  /// Leftmost slot attaining the minimum level (the Worst Fit candidate —
  /// by monotonicity of fitsCapacity it fits iff any slot does), or npos
  /// when every slot is closed. O(log B). Ordered (scalar) levels only.
  std::size_t minSlot() const
    requires(R::kOrderedLevels);

  /// Visits every open slot that fits `demand`, in slot (opening) order,
  /// as fn(slot, level). Internal nodes failing the sound prune are
  /// skipped wholesale; leaves are tested exactly, so the visit sequence
  /// equals the linear scan's sequence of fitting bins.
  template <typename Fn>
  void forEachFitting(const Demand& demand, Fn&& fn) const {
    if (size_ > 0) visitFitting(1, demand, fn);
  }

  /// Current level of a slot (the closed sentinel when closed).
  const Level& levelAt(std::size_t slot) const { return tree_[cap_ + slot]; }

  /// Slots handed out since the last compaction (open + closed).
  std::size_t size() const { return size_; }

  /// Open slots.
  std::size_t openCount() const { return open_; }

  /// Leaf slots the backing array holds (a power of two, or 0).
  std::size_t capacity() const { return cap_; }

 private:
  std::size_t searchLeftmost(std::size_t pos, const Demand& demand) const;
  template <typename Fn>
  void visitFitting(std::size_t pos, const Demand& demand, Fn&& fn) const;
  void grow(std::size_t minCap);
  // Installs `fresh` (leaves filled at [newCap, 2 * newCap)) as the tree
  // after computing every internal node bottom-up.
  void install(std::vector<Level> fresh, std::size_t newCap);

  // tree_[1] is the root, leaves live at [cap_, cap_ + size_); unassigned
  // leaves are closedLevel so they never win a descent.
  std::vector<Level> tree_;
  Shape shape_;
  std::size_t cap_ = 0;
  std::size_t size_ = 0;
  std::size_t open_ = 0;
};

/// The placement index proper: one MinLevelTreeT + (for ordered levels) a
/// lazy Best Fit set per scope, where a scope is either the global open
/// set or one policy category. BasicBinManager drives it via onOpen /
/// onLevelChange / onClose; queries return the bin id, or kNewBin when no
/// open bin fits. A category's scope exists while the category has an open
/// bin, and only once a second category appears: while every bin opened so
/// far shares one category, that category's scope would mirror the global
/// one bin for bin, so its queries read the global scope instead. The
/// global scope, in turn, is kept only while something reads it: when the
/// second category appears it becomes the first category's scope, and the
/// first global query after that rebuilds it from the category scopes'
/// open bins, in bin-id order (which is opening order), and maintains it
/// from then on. Category policies never ask a global query, so they never
/// pay for a second tree. Not copyable: each bin records a pointer to its
/// category scope (std::map nodes survive moves, not copies).
template <typename R>
class BinSearchIndexT {
 public:
  using Level = typename R::Level;
  using Demand = typename R::Demand;
  using Shape = typename R::Shape;

  explicit BinSearchIndexT(Shape shape = {})
      : shape_(shape), global_(shape, 0) {}
  BinSearchIndexT(const BinSearchIndexT&) = delete;
  BinSearchIndexT& operator=(const BinSearchIndexT&) = delete;
  BinSearchIndexT(BinSearchIndexT&&) = default;
  BinSearchIndexT& operator=(BinSearchIndexT&&) = default;

  void onOpen(BinId id, int category);
  void onLevelChange(BinId id, const Level& newLevel);
  void onClose(BinId id);

  /// Leaf slots of the global scope's tree: O(open bins), not O(bins ever
  /// opened) — at most 4 * (peak open bins) + 1. 0 once a second category
  /// has opened, until the next global query rebuilds the scope.
  std::size_t slotCapacity() const { return global_.tree.capacity(); }
  /// The same for one category's scope (0 while the category has no open
  /// bin).
  std::size_t slotCapacityIn(int category) const {
    const Scope* scope = scopeOf(category);
    return scope == nullptr ? 0 : scope->tree.capacity();
  }

  /// Heap bytes the index holds: trees, slot maps, Best Fit sets, scopes
  /// and the per-bin slot records. O(1): kept as running totals.
  std::size_t residentBytes() const;

  BinId firstFit(const Demand& demand) const {
    return firstFitIn(liveGlobal(), demand);
  }
  BinId firstFitIn(int category, const Demand& demand) const;
  BinId bestFit(const Demand& demand) const
    requires(R::kOrderedLevels)
  {
    return bestFitIn(liveGlobal(), demand);
  }
  BinId bestFitIn(int category, const Demand& demand) const
    requires(R::kOrderedLevels);
  BinId worstFit(const Demand& demand) const
    requires(R::kOrderedLevels)
  {
    return worstFitIn(liveGlobal(), demand);
  }
  BinId worstFitIn(int category, const Demand& demand) const
    requires(R::kOrderedLevels);

  /// Fitting bin of `category` minimizing score(level), eps-strict
  /// improvement, ties to the earliest-opened bin — the query behind
  /// Dominant-Resource Fit. Candidates are enumerated through the pruned
  /// tree traversal in opening order, so the winner (and every comparison
  /// deciding it) is identical to the linear scan's.
  template <typename ScoreFn>
  BinId minScoreFitIn(int category, const Demand& demand,
                      ScoreFn&& score) const {
    const Scope* found = scopeOf(category);
    if (found == nullptr) return kNewBin;
    const Scope& scope = *found;
    BinId best = kNewBin;
    double bestScore = std::numeric_limits<double>::infinity();
    scope.tree.forEachFitting(
        demand, [&](std::size_t slot, const Level& level) {
          double s = score(level);
          if (s < bestScore - kSizeEps) {
            bestScore = s;
            best = scope.slotToBin[slot];
          }
        });
    return best;
  }

 private:
  struct Scope {
    Scope(Shape shape, int key) : tree(shape), category(key) {}

    MinLevelTreeT<R> tree;
    std::vector<BinId> slotToBin;  ///< slot (scope-local) -> global bin id
    int category;  ///< key in byCategory_ (unused by the global scope)
    /// Open bins ordered by (level, id): Best Fit walks down from the
    /// fitting threshold. Built on the first bestFit query against this
    /// scope and maintained incrementally afterwards; mutable because
    /// materialization happens inside logically-const queries (the index
    /// is owned by one single-threaded simulation). Only touched for
    /// ordered (scalar) levels.
    mutable std::set<std::pair<Level, BinId>> byLevel;
    mutable bool byLevelBuilt = false;
  };

  // Where a bin lives: its slot in the global tree and in its category's
  // tree, and that category's scope (null while one category is all there
  // is). `global` is meaningless while the global scope is not kept, and
  // all three are once the bin closed (its category scope may be gone);
  // neither is ever read then.
  struct BinSlots {
    std::uint32_t global = 0;
    std::uint32_t inCategory = 0;
    Scope* category = nullptr;
  };

  // Appends bin `id` to `scope` (compacting first when the scope asks for
  // it) and returns its slot; `field` names the BinSlots member that
  // records slots of this scope, so compaction can rewrite moved bins.
  std::uint32_t append(Scope& scope, BinId id, std::uint32_t BinSlots::*field);
  // The scope answering queries for `category`, or null when it has no
  // open bin.
  const Scope* scopeOf(int category) const;
  // Ends single-category mode: the global scope becomes firstCategory_'s
  // scope, and the global scope is no longer kept.
  void splitCategories();
  // The global scope, rebuilt first if it is not kept.
  const Scope& liveGlobal() const {
    if (!globalLive_) rebuildGlobal();
    return global_;
  }
  // Rebuilds the global scope from every category scope's open bins, in
  // bin-id order, and keeps it from then on.
  void rebuildGlobal() const;
  void apply(Scope& scope, std::size_t slot, BinId id, const Level* newLevel);
  // Bytes of a scope's tree and slot map (what slotBytes_ sums).
  static std::size_t scopeBytes(const Scope& scope);
  void materialize(const Scope& scope) const
    requires(R::kOrderedLevels);
  static BinId firstFitIn(const Scope& scope, const Demand& demand);
  BinId bestFitIn(const Scope& scope, const Demand& demand) const
    requires(R::kOrderedLevels);
  static BinId worstFitIn(const Scope& scope, const Demand& demand)
    requires(R::kOrderedLevels);

  Shape shape_;
  // The global scope and the records of its slots are rebuilt inside
  // logically-const queries (rebuildGlobal), hence mutable; like byLevel,
  // that is safe because one single-threaded simulation owns the index.
  mutable Scope global_;
  std::map<int, Scope> byCategory_;
  // Per-bin slot records, indexed by the dense BinId (bins open in id
  // order). Compaction renumbers slots, so a slot is never a bin id.
  mutable std::vector<BinSlots> slots_;
  // Running totals behind residentBytes(): scopeBytes() over every scope,
  // and the entries of every Best Fit set.
  mutable std::size_t slotBytes_ = 0;
  mutable std::size_t levelEntries_ = 0;
  // global_ is maintained: always in single-category mode, and after a
  // second category opened only once a global query has rebuilt it.
  mutable bool globalLive_ = true;
  // Single-category mode: every bin opened so far has firstCategory_, and
  // byCategory_ is empty.
  bool oneCategory_ = true;
  int firstCategory_ = 0;
};

// The scalar instantiations keep their PR 3 names (and, for the tree, the
// kClosed sentinel tests poke at); they are explicitly instantiated in
// bin_search.cpp.
class MinLevelTree : public MinLevelTreeT<ScalarResource> {
 public:
  using MinLevelTreeT<ScalarResource>::MinLevelTreeT;

  /// Sentinel level for closed / not-yet-opened slots. fitsCapacity(+inf,
  /// s) is false for every s, so closed slots are invisible to queries.
  static constexpr Size kClosed = std::numeric_limits<Size>::infinity();
};
using BinSearchIndex = BinSearchIndexT<ScalarResource>;

// --- template definitions ---

template <typename R>
void MinLevelTreeT<R>::install(std::vector<Level> fresh, std::size_t newCap) {
  for (std::size_t i = newCap - 1; i >= 1; --i) {
    Level combined = fresh[2 * i];
    R::assignMin(combined, fresh[2 * i + 1]);
    fresh[i] = std::move(combined);
  }
  tree_ = std::move(fresh);
  cap_ = newCap;
}

template <typename R>
void MinLevelTreeT<R>::grow(std::size_t minCap) {
  std::size_t newCap = cap_ == 0 ? 1 : cap_;
  while (newCap < minCap) newCap *= 2;
  std::vector<Level> fresh(2 * newCap, R::closedLevel(shape_));
  for (std::size_t i = 0; i < size_; ++i) {
    fresh[newCap + i] = std::move(tree_[cap_ + i]);
  }
  install(std::move(fresh), newCap);
}

template <typename R>
template <typename OnMove>
void MinLevelTreeT<R>::compact(OnMove&& onMove) {
  const std::size_t newCap = std::bit_ceil(std::max<std::size_t>(1, 2 * open_));
  std::vector<Level> fresh(2 * newCap, R::closedLevel(shape_));
  std::size_t to = 0;
  for (std::size_t from = 0; from < size_; ++from) {
    Level& level = tree_[cap_ + from];
    if (R::isClosed(level)) continue;
    fresh[newCap + to] = std::move(level);
    onMove(from, to);
    ++to;
  }
  CDBP_DCHECK(to == open_, "MinLevelTree::compact: found ", to,
              " open slots, expected ", open_);
  size_ = to;
  install(std::move(fresh), newCap);
}

template <typename R>
std::size_t MinLevelTreeT<R>::append(const Level& level) {
  if (size_ == cap_) grow(size_ + 1);
  std::size_t slot = size_++;
  ++open_;
  update(slot, level);
  return slot;
}

template <typename R>
void MinLevelTreeT<R>::update(std::size_t slot, const Level& level) {
  CDBP_DCHECK(slot < size_, "MinLevelTree::update: slot ", slot,
              " out of range (size ", size_, ")");
  std::size_t pos = cap_ + slot;
  tree_[pos] = level;
  for (pos /= 2; pos >= 1; pos /= 2) {
    Level combined = tree_[2 * pos];
    R::assignMin(combined, tree_[2 * pos + 1]);
    tree_[pos] = std::move(combined);
  }
}

template <typename R>
void MinLevelTreeT<R>::close(std::size_t slot) {
  CDBP_DCHECK(slot < size_ && !R::isClosed(levelAt(slot)),
              "MinLevelTree::close: slot ", slot, " is not open");
  update(slot, R::closedLevel(shape_));
  --open_;
}

template <typename R>
std::size_t MinLevelTreeT<R>::firstFit(const Demand& demand) const {
  if (size_ == 0 || !R::fits(tree_[1], demand)) return npos;
  if constexpr (R::kOrderedLevels) {
    // Exact prune: the subtree minimum is a leaf value and fits is
    // monotone, so whenever a node's min fits, some leaf below fits —
    // prefer the left child for the leftmost (earliest-opened) slot,
    // exactly like the linear scan's break-on-first-hit. Never backtracks.
    std::size_t pos = 1;
    while (pos < cap_) {
      pos = R::fits(tree_[2 * pos], demand) ? 2 * pos : 2 * pos + 1;
    }
    return pos - cap_;
  } else {
    return searchLeftmost(1, demand);
  }
}

template <typename R>
std::size_t MinLevelTreeT<R>::searchLeftmost(std::size_t pos,
                                             const Demand& demand) const {
  // Sound prune: a node whose min-combined level fails R::fits has no
  // fitting leaf. A passing internal node is only a *maybe* for unordered
  // levels, so descend left-first and fall back to the right subtree.
  // Leaves hold actual bin levels, so the leaf test is exact and the first
  // accepted leaf is the leftmost genuinely fitting bin.
  if (!R::fits(tree_[pos], demand)) return npos;
  if (pos >= cap_) return pos - cap_;
  std::size_t left = searchLeftmost(2 * pos, demand);
  if (left != npos) return left;
  return searchLeftmost(2 * pos + 1, demand);
}

template <typename R>
template <typename Fn>
void MinLevelTreeT<R>::visitFitting(std::size_t pos, const Demand& demand,
                                    Fn&& fn) const {
  if (!R::fits(tree_[pos], demand)) return;
  if (pos >= cap_) {
    fn(pos - cap_, tree_[pos]);
    return;
  }
  visitFitting(2 * pos, demand, fn);
  visitFitting(2 * pos + 1, demand, fn);
}

template <typename R>
std::size_t MinLevelTreeT<R>::minSlot() const
  requires(R::kOrderedLevels)
{
  if (size_ == 0 || R::isClosed(tree_[1])) return npos;
  std::size_t pos = 1;
  while (pos < cap_) {
    // Ties go left: the leftmost slot attaining the global minimum, which
    // is the earliest-opened bin the linear Worst Fit scan would keep.
    pos = tree_[2 * pos] <= tree_[2 * pos + 1] ? 2 * pos : 2 * pos + 1;
  }
  return pos - cap_;
}

template <typename R>
std::uint32_t BinSearchIndexT<R>::append(Scope& scope, BinId id,
                                         std::uint32_t BinSlots::*field) {
  const std::size_t bytesBefore = scopeBytes(scope);
  if (scope.tree.wantsCompaction()) {
    scope.tree.compact([&](std::size_t from, std::size_t to) {
      BinId moved = scope.slotToBin[from];
      scope.slotToBin[to] = moved;  // to <= from: in place is safe
      slots_[static_cast<std::size_t>(moved)].*field =
          static_cast<std::uint32_t>(to);
    });
    scope.slotToBin.resize(scope.tree.size());
    scope.slotToBin.shrink_to_fit();
  }
  std::size_t slot = scope.tree.append(R::zeroLevel(shape_));
  CDBP_CHECK(slot <= std::numeric_limits<std::uint32_t>::max(),
             "BinSearchIndex: more than 2^32 open bins in one scope");
  scope.slotToBin.push_back(id);
  slotBytes_ = slotBytes_ - bytesBefore + scopeBytes(scope);
  return static_cast<std::uint32_t>(slot);
}

template <typename R>
const typename BinSearchIndexT<R>::Scope* BinSearchIndexT<R>::scopeOf(
    int category) const {
  if (oneCategory_) {
    return !slots_.empty() && category == firstCategory_ ? &global_ : nullptr;
  }
  auto it = byCategory_.find(category);
  return it == byCategory_.end() ? nullptr : &it->second;
}

template <typename R>
void BinSearchIndexT<R>::splitCategories() {
  oneCategory_ = false;
  globalLive_ = false;
  if (global_.tree.openCount() == 0) {
    // firstCategory_ has no open bin, so it gets no scope.
    slotBytes_ -= scopeBytes(global_);
  } else {
    // Moved, not copied: the bytes and Best Fit entries change owner.
    Scope& cat = byCategory_.try_emplace(firstCategory_, std::move(global_))
                     .first->second;
    cat.category = firstCategory_;
    for (std::size_t slot = 0; slot < cat.tree.size(); ++slot) {
      if (R::isClosed(cat.tree.levelAt(slot))) continue;
      BinSlots& bin = slots_[static_cast<std::size_t>(cat.slotToBin[slot])];
      bin.inCategory = bin.global;
      bin.category = &cat;
    }
  }
  global_ = Scope(shape_, 0);
}

template <typename R>
void BinSearchIndexT<R>::rebuildGlobal() const {
  std::vector<BinId> open;
  for (const auto& entry : byCategory_) {
    const Scope& scope = entry.second;
    for (std::size_t slot = 0; slot < scope.tree.size(); ++slot) {
      if (!R::isClosed(scope.tree.levelAt(slot))) {
        open.push_back(scope.slotToBin[slot]);
      }
    }
  }
  // Bins open in id order, so id order is the global opening order.
  std::sort(open.begin(), open.end());
  CDBP_DCHECK(global_.tree.capacity() == 0,
              "BinSearchIndex::rebuildGlobal: the global scope is kept");
  for (BinId id : open) {
    BinSlots& bin = slots_[static_cast<std::size_t>(id)];
    bin.global = static_cast<std::uint32_t>(
        global_.tree.append(bin.category->tree.levelAt(bin.inCategory)));
    global_.slotToBin.push_back(id);
  }
  slotBytes_ += scopeBytes(global_);
  globalLive_ = true;
}

template <typename R>
void BinSearchIndexT<R>::onOpen(BinId id, int category) {
  CDBP_DCHECK(static_cast<std::size_t>(id) == slots_.size(),
              "BinSearchIndex::onOpen: ids must arrive densely, got ", id,
              " expected ", slots_.size());
  if (slots_.empty()) {
    firstCategory_ = category;
  } else if (oneCategory_ && category != firstCategory_) {
    splitCategories();
  }
  slots_.push_back(BinSlots{});
  if (globalLive_) {
    slots_.back().global = append(global_, id, &BinSlots::global);
  }
  Scope* cat = nullptr;
  if (!oneCategory_) {
    cat = &byCategory_.try_emplace(category, shape_, category).first->second;
    slots_.back().category = cat;
    slots_.back().inCategory = append(*cat, id, &BinSlots::inCategory);
  }
  if constexpr (R::kOrderedLevels) {
    Level zero = R::zeroLevel(shape_);
    for (Scope* scope : {globalLive_ ? &global_ : nullptr, cat}) {
      if (scope != nullptr && scope->byLevelBuilt) {
        scope->byLevel.insert({zero, id});
        ++levelEntries_;
      }
    }
  }
}

template <typename R>
void BinSearchIndexT<R>::apply(Scope& scope, std::size_t slot, BinId id,
                               const Level* newLevel) {
  if constexpr (R::kOrderedLevels) {
    if (scope.byLevelBuilt) {
      const Level& oldLevel = scope.tree.levelAt(slot);
      if (!R::isClosed(oldLevel)) scope.byLevel.erase({oldLevel, id});
      if (newLevel != nullptr) {
        scope.byLevel.insert({*newLevel, id});
      } else {
        --levelEntries_;
      }
    }
  }
  if (newLevel != nullptr) {
    scope.tree.update(slot, *newLevel);
  } else {
    scope.tree.close(slot);
  }
}

template <typename R>
void BinSearchIndexT<R>::onLevelChange(BinId id, const Level& newLevel) {
  std::size_t b = static_cast<std::size_t>(id);
  CDBP_DCHECK(b < slots_.size(),
              "BinSearchIndex::onLevelChange: unknown bin ", id);
  const BinSlots& slots = slots_[b];
  if (globalLive_) apply(global_, slots.global, id, &newLevel);
  if (slots.category != nullptr) {
    apply(*slots.category, slots.inCategory, id, &newLevel);
  }
}

template <typename R>
void BinSearchIndexT<R>::onClose(BinId id) {
  std::size_t b = static_cast<std::size_t>(id);
  CDBP_DCHECK(b < slots_.size(), "BinSearchIndex::onClose: unknown bin ", id);
  const BinSlots& slots = slots_[b];
  if (globalLive_) apply(global_, slots.global, id, nullptr);
  if (slots.category == nullptr) return;
  Scope& cat = *slots.category;
  apply(cat, slots.inCategory, id, nullptr);
  if (cat.tree.openCount() == 0) {
    // The category's last open bin closed: drop its scope, so the index
    // holds O(open categories) scopes. A later bin of the category starts
    // a fresh scope, in which opening order is again slot order.
    slotBytes_ -= scopeBytes(cat);
    byCategory_.erase(cat.category);
  }
}

template <typename R>
std::size_t BinSearchIndexT<R>::scopeBytes(const Scope& scope) {
  return 2 * scope.tree.capacity() * sizeof(Level) +
         scope.slotToBin.capacity() * sizeof(BinId);
}

template <typename R>
std::size_t BinSearchIndexT<R>::residentBytes() const {
  // Red-black tree nodes: the value plus three links and a color word.
  constexpr std::size_t kLinks = 4 * sizeof(void*);
  return slotBytes_ + slots_.capacity() * sizeof(BinSlots) +
         byCategory_.size() * (sizeof(std::pair<const int, Scope>) + kLinks) +
         levelEntries_ * (sizeof(std::pair<Level, BinId>) + kLinks);
}

template <typename R>
void BinSearchIndexT<R>::materialize(const Scope& scope) const
  requires(R::kOrderedLevels)
{
  for (std::size_t slot = 0; slot < scope.tree.size(); ++slot) {
    const Level& level = scope.tree.levelAt(slot);
    if (!R::isClosed(level)) {
      scope.byLevel.insert({level, scope.slotToBin[slot]});
      ++levelEntries_;
    }
  }
  scope.byLevelBuilt = true;
}

template <typename R>
BinId BinSearchIndexT<R>::firstFitIn(const Scope& scope,
                                     const Demand& demand) {
  std::size_t slot = scope.tree.firstFit(demand);
  return slot == MinLevelTreeT<R>::npos ? kNewBin : scope.slotToBin[slot];
}

template <typename R>
BinId BinSearchIndexT<R>::bestFitIn(const Scope& scope,
                                    const Demand& demand) const
  requires(R::kOrderedLevels)
{
  if (!scope.byLevelBuilt) materialize(scope);
  const auto& byLevel = scope.byLevel;
  auto it = byLevel.upper_bound(
      {fittingLevelUpperBound(demand), std::numeric_limits<BinId>::max()});
  while (it != byLevel.begin()) {
    --it;
    if (fitsCapacity(it->first, demand)) {
      // it->first is the maximum fitting level (fitsCapacity is monotone
      // decreasing in level); take the earliest-opened bin at that level.
      auto first = byLevel.lower_bound(
          {it->first, std::numeric_limits<BinId>::min()});
      return first->second;
    }
    // This level sits in the sub-tolerance window between the true cutoff
    // and the conservative bound; skip its whole run of bins and keep
    // seeking down. The window is ~1e-12 wide, so this loop effectively
    // never repeats in practice.
    it = byLevel.lower_bound({it->first, std::numeric_limits<BinId>::min()});
  }
  return kNewBin;
}

template <typename R>
BinId BinSearchIndexT<R>::worstFitIn(const Scope& scope, const Demand& demand)
  requires(R::kOrderedLevels)
{
  std::size_t slot = scope.tree.minSlot();
  if (slot == MinLevelTreeT<R>::npos) return kNewBin;
  // The minimum-level bin fits iff any bin does (monotone fitsCapacity),
  // and it is exactly the bin the linear Worst Fit scan selects.
  if (!fitsCapacity(scope.tree.levelAt(slot), demand)) return kNewBin;
  return scope.slotToBin[slot];
}

template <typename R>
BinId BinSearchIndexT<R>::firstFitIn(int category, const Demand& demand) const {
  const Scope* scope = scopeOf(category);
  return scope == nullptr ? kNewBin : firstFitIn(*scope, demand);
}

template <typename R>
BinId BinSearchIndexT<R>::bestFitIn(int category, const Demand& demand) const
  requires(R::kOrderedLevels)
{
  const Scope* scope = scopeOf(category);
  return scope == nullptr ? kNewBin : bestFitIn(*scope, demand);
}

template <typename R>
BinId BinSearchIndexT<R>::worstFitIn(int category, const Demand& demand) const
  requires(R::kOrderedLevels)
{
  const Scope* scope = scopeOf(category);
  return scope == nullptr ? kNewBin : worstFitIn(*scope, demand);
}

// The hot scalar path is compiled once in bin_search.cpp; other resource
// models (VectorResource, IntervalResource) instantiate lazily in the TUs
// that use them.
extern template class MinLevelTreeT<ScalarResource>;
extern template class BinSearchIndexT<ScalarResource>;

}  // namespace cdbp
