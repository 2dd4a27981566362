// BasicPlacementView: the narrow, read-only surface a packing policy sees,
// generic over a Resource model (sim/resource.hpp documents the concept).
//
// Policies used to take `const BinManager&` directly, which (a) exposed
// the whole mutation-adjacent interface and (b) hard-wired every policy to
// linear open-list scans. The view exposes exactly what placement logic
// needs — the indexed placement queries, the per-category open lists for
// bespoke scans, per-bin metadata, and the simulation clock — and routes
// each query to the engine the simulation selected:
//
//  * indexed (default): O(log B) answers from the BinSearchIndexT. Each
//    query counts once toward `sim.fit_checks` (one policy-visible
//    capacity question was asked, however it was answered).
//  * linear-scan reference: the exact open-list scans the policies
//    shipped with, probe by counted probe — retained so differential
//    tests can pin the indexed engine against it bit for bit. The only
//    engine for non-indexable models (IntervalResource).
//
// The view also counts those probes itself (probes()): a view lives for one
// placement, so the engines read each placement's scan cost from it
// without touching the process-wide counter, which concurrent runs share.
//
// Queries return the chosen bin id or kNewBin when no open bin fits.
// Best/Worst Fit exist only for ordered (scalar) levels; unordered models
// use minScoreFitIn (Dominant-Resource Fit) or the open-list surface.
#pragma once

#include <limits>

#include "core/types.hpp"
#include "sim/bin_manager.hpp"

namespace cdbp {

template <typename R>
class BasicPlacementView {
 public:
  using Demand = typename R::Demand;
  using BinInfo = typename BasicBinManager<R>::BinInfo;

  /// `now` is the arrival instant of the item being placed (departures up
  /// to and including `now` have already been drained).
  BasicPlacementView(const BasicBinManager<R>& bins, Time now)
      : bins_(bins), now_(now) {}

  /// The simulation clock: the current item's arrival time.
  Time now() const { return now_; }

  /// True when queries are answered by the sublinear index.
  bool indexed() const { return bins_.indexed(); }

  /// Capacity probes issued through this view so far: each indexed query
  /// and each linear-scan fits() counts one, exactly as `sim.fit_checks`.
  std::size_t probes() const { return probes_; }

  // --- Indexed placement queries (engine-routed) ---

  /// Earliest-opened open bin that fits `demand`, or kNewBin.
  BinId firstFit(const Demand& demand) const {
    if constexpr (R::kIndexable) {
      if (indexed()) {
        countIndexedQuery();
        return bins_.index().firstFit(demand);
      }
    }
    return linearFirstFit(bins_.openBins(), demand);
  }

  /// Earliest-opened open bin of `category` that fits `demand`, or kNewBin.
  BinId firstFitIn(int category, const Demand& demand) const {
    if constexpr (R::kIndexable) {
      if (indexed()) {
        countIndexedQuery();
        return bins_.index().firstFitIn(category, demand);
      }
    }
    return linearFirstFit(bins_.openBins(category), demand);
  }

  /// Fullest fitting open bin (ties to earliest-opened), or kNewBin.
  /// Ordered (scalar) levels only.
  BinId bestFit(const Demand& demand) const
    requires(R::kOrderedLevels)
  {
    if (!indexed()) return linearBestFit(bins_.openBins(), demand);
    countIndexedQuery();
    return bins_.index().bestFit(demand);
  }
  BinId bestFitIn(int category, const Demand& demand) const
    requires(R::kOrderedLevels)
  {
    if (!indexed()) return linearBestFit(bins_.openBins(category), demand);
    countIndexedQuery();
    return bins_.index().bestFitIn(category, demand);
  }

  /// Emptiest fitting open bin (ties to earliest-opened), or kNewBin.
  /// Ordered (scalar) levels only.
  BinId worstFit(const Demand& demand) const
    requires(R::kOrderedLevels)
  {
    if (!indexed()) return linearWorstFit(bins_.openBins(), demand);
    countIndexedQuery();
    return bins_.index().worstFit(demand);
  }
  BinId worstFitIn(int category, const Demand& demand) const
    requires(R::kOrderedLevels)
  {
    if (!indexed()) return linearWorstFit(bins_.openBins(category), demand);
    countIndexedQuery();
    return bins_.index().worstFitIn(category, demand);
  }

  /// Fitting bin of `category` minimizing score(level) — eps-strict
  /// improvement, ties to the earliest-opened bin (the Dominant-Resource
  /// Fit query: score the hypothetical post-placement level inside the
  /// callback). Both engines enumerate candidates in opening order and
  /// apply the same comparison on the same doubles, so they agree bin for
  /// bin.
  template <typename ScoreFn>
  BinId minScoreFitIn(int category, const Demand& demand,
                      ScoreFn&& score) const {
    if constexpr (R::kIndexable) {
      if (indexed()) {
        countIndexedQuery();
        return bins_.index().minScoreFitIn(category, demand, score);
      }
    }
    BinId best = kNewBin;
    double bestScore = std::numeric_limits<double>::infinity();
    for (BinId id : bins_.openBins(category)) {
      if (!fits(id, demand)) continue;
      double s = score(bins_.info(id).level);
      if (s < bestScore - kSizeEps) {
        bestScore = s;
        best = id;
      }
    }
    return best;
  }

  // --- Open-list surface for policies with bespoke selection rules ---

  /// All open bins in opening order.
  const std::vector<BinId>& openBins() const { return bins_.openBins(); }

  /// Open bins of one category in opening order (empty list if none).
  const std::vector<BinId>& openBins(int category) const {
    return bins_.openBins(category);
  }

  /// Metadata of a bin (open or closed).
  const BinInfo& info(BinId id) const { return bins_.info(id); }

  /// Counted capacity probe: whether `demand` fits bin `id` now. This is
  /// the per-bin question bespoke scans ask; every call counts toward
  /// `sim.fit_checks`.
  bool fits(BinId id, const Demand& demand) const {
    ++probes_;
    return bins_.fits(id, demand);
  }

  /// Total bins ever opened (the id the next fresh bin will receive).
  std::size_t binsOpened() const { return bins_.binsOpened(); }

  /// Currently open bin count.
  std::size_t openCount() const { return bins_.openCount(); }

 private:
  // One indexed query = one policy-visible capacity question. The linear
  // reference path instead counts every probe inside fits(), which is
  // exactly what the original scanning policies charged.
  void countIndexedQuery() const {
    ++probes_;
    CDBP_TELEM_COUNT("sim.fit_checks", 1);
  }

  // The linear scans below reproduce the original policy loops verbatim —
  // same iteration order, same comparison operators, same counted fits()
  // probes — so a linear-engine run is byte-for-byte the seed behavior the
  // differential tests compare the index against.

  BinId linearFirstFit(const std::vector<BinId>& bins,
                       const Demand& demand) const {
    for (BinId id : bins) {
      if (fits(id, demand)) return id;
    }
    return kNewBin;
  }

  BinId linearBestFit(const std::vector<BinId>& bins,
                      const Demand& demand) const
    requires(R::kOrderedLevels)
  {
    BinId best = kNewBin;
    Size bestLevel = -1;
    for (BinId id : bins) {
      if (!fits(id, demand)) continue;
      Size level = bins_.info(id).level;
      if (level > bestLevel) {  // strict: ties keep the earliest-opened bin
        bestLevel = level;
        best = id;
      }
    }
    return best;
  }

  BinId linearWorstFit(const std::vector<BinId>& bins,
                       const Demand& demand) const
    requires(R::kOrderedLevels)
  {
    BinId best = kNewBin;
    Size bestLevel = std::numeric_limits<Size>::infinity();
    for (BinId id : bins) {
      if (!fits(id, demand)) continue;
      Size level = bins_.info(id).level;
      if (level < bestLevel) {  // strict: ties keep the earliest-opened bin
        bestLevel = level;
        best = id;
      }
    }
    return best;
  }

  const BasicBinManager<R>& bins_;
  Time now_;
  mutable std::size_t probes_ = 0;
};

/// The scalar instantiation keeps its PR 3 name; it is explicitly
/// instantiated in placement_view.cpp.
using PlacementView = BasicPlacementView<ScalarResource>;

extern template class BasicPlacementView<ScalarResource>;

}  // namespace cdbp
