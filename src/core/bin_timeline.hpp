// BinTimeline: the level profile of a single bin over all time.
//
// Offline algorithms (Duration Descending First Fit, the flexible
// scheduler) insert items out of arrival order, so feasibility of a
// placement must be checked over the item's whole active interval, not just
// at its arrival instant. BinTimeline provides exactly that query. A
// finished Packing keeps no level profile (core/packing.hpp).
#pragma once

#include <vector>

#include "core/epsilon.hpp"
#include "core/item.hpp"
#include "core/step_function.hpp"

namespace cdbp {

class BinTimeline {
 public:
  /// Whether `r` can be added without the level exceeding the unit capacity
  /// anywhere in I(r).
  bool fits(const Item& r) const {
    return fitsCapacity(level_.maxOver(r.interval), r.size);
  }

  /// Adds `r` unconditionally (callers check fits() first when required).
  void add(const Item& r) {
    level_.add(r.interval, r.size);
    items_.push_back(r.id);
    busy_.add(r.interval);
  }

  /// Level of the bin at time t.
  Size levelAt(Time t) const { return level_.valueAt(t); }

  /// Maximum level over an interval.
  Size maxLevelOver(const Interval& I) const { return level_.maxOver(I); }

  /// Peak level over all time.
  Size peakLevel() const { return level_.maxValue(); }

  /// Usage time of the bin: measure of the time it is non-empty (the span
  /// of the items placed in it).
  Time usage() const { return busy_.measure(); }

  /// The busy periods of the bin as a normalized interval set.
  const IntervalSet& busyPeriods() const { return busy_; }

  /// Ids of the items placed in the bin, in placement order.
  const std::vector<ItemId>& items() const { return items_; }

  bool empty() const { return items_.empty(); }

 private:
  StepFunction level_;
  IntervalSet busy_;
  std::vector<ItemId> items_;
};

}  // namespace cdbp
