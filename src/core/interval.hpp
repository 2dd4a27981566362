// Half-open time intervals [lo, hi) and interval-set algebra.
//
// The paper (§3.1) views all active intervals as half-open, which makes
// "departing at t" and "arriving at t" non-overlapping. Every interval in
// cdbp follows that convention.
#pragma once

#include <algorithm>
#include <cassert>
#include <ostream>
#include <vector>

#include "core/types.hpp"

namespace cdbp {

/// A half-open time interval [lo, hi). Empty when hi <= lo.
struct Interval {
  Time lo = 0;
  Time hi = 0;

  constexpr Interval() = default;
  constexpr Interval(Time lo_, Time hi_) : lo(lo_), hi(hi_) {}

  /// Length l(I) = hi - lo; zero for empty intervals.
  constexpr Time length() const { return hi > lo ? hi - lo : 0; }

  constexpr bool empty() const { return hi <= lo; }

  /// Whether time t lies inside [lo, hi).
  constexpr bool contains(Time t) const { return lo <= t && t < hi; }

  /// Whether `other` is fully contained in this interval.
  constexpr bool contains(const Interval& other) const {
    return other.empty() || (lo <= other.lo && other.hi <= hi);
  }

  /// Positive-measure overlap with `other` (half-open semantics: touching
  /// endpoints do not overlap).
  constexpr bool overlaps(const Interval& other) const {
    return std::max(lo, other.lo) < std::min(hi, other.hi);
  }

  /// Intersection; empty if disjoint.
  constexpr Interval intersect(const Interval& other) const {
    return {std::max(lo, other.lo), std::min(hi, other.hi)};
  }

  friend constexpr bool operator==(const Interval&, const Interval&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const Interval& I) {
  return os << "[" << I.lo << ", " << I.hi << ")";
}

/// A set of disjoint, sorted, non-empty half-open intervals.
///
/// Supports the operations the paper's accounting needs: union-insert,
/// total measure (the "span" of an item list is the measure of the union of
/// its active intervals), and point/interval coverage queries.
class IntervalSet {
 public:
  IntervalSet() = default;

  /// Builds the normalized union of an arbitrary collection of intervals
  /// with one sweep: O(n) when they come sorted by lo, O(n log n) else.
  /// The parts equal those n add() calls leave, in any insertion order.
  explicit IntervalSet(std::vector<Interval> intervals) {
    auto byLo = [](const Interval& a, const Interval& b) {
      return a.lo < b.lo;
    };
    if (!std::is_sorted(intervals.begin(), intervals.end(), byLo)) {
      std::sort(intervals.begin(), intervals.end(), byLo);
    }
    for (const Interval& I : intervals) {
      if (I.empty()) continue;
      if (!parts_.empty() && I.lo <= parts_.back().hi) {
        parts_.back().hi = std::max(parts_.back().hi, I.hi);
      } else {
        parts_.push_back(I);
      }
    }
  }

  /// Inserts [I.lo, I.hi), merging with existing overlapping or touching
  /// intervals. Amortized O(log n + k) where k intervals are absorbed.
  void add(Interval I) {
    if (I.empty()) return;
    // Find the first stored interval ending at or after I.lo; everything
    // before it is untouched.
    auto first = std::lower_bound(
        parts_.begin(), parts_.end(), I.lo,
        [](const Interval& p, Time t) { return p.hi < t; });
    auto it = first;
    while (it != parts_.end() && it->lo <= I.hi) {
      I.lo = std::min(I.lo, it->lo);
      I.hi = std::max(I.hi, it->hi);
      ++it;
    }
    it = parts_.erase(first, it);
    parts_.insert(it, I);
  }

  void add(const IntervalSet& other) {
    for (const Interval& I : other.parts_) add(I);
  }

  /// Total measure of the set (sum of part lengths).
  Time measure() const {
    Time total = 0;
    for (const Interval& I : parts_) total += I.length();
    return total;
  }

  bool empty() const { return parts_.empty(); }

  bool contains(Time t) const {
    auto it = std::upper_bound(
        parts_.begin(), parts_.end(), t,
        [](Time tt, const Interval& p) { return tt < p.lo; });
    return it != parts_.begin() && std::prev(it)->contains(t);
  }

  /// Whether any part has positive-measure overlap with I.
  bool overlaps(const Interval& I) const {
    if (I.empty()) return false;
    auto it = std::lower_bound(
        parts_.begin(), parts_.end(), I.lo,
        [](const Interval& p, Time t) { return p.hi <= t; });
    return it != parts_.end() && it->overlaps(I);
  }

  /// Left endpoint of the earliest part; asserts on empty sets.
  Time min() const {
    assert(!parts_.empty());
    return parts_.front().lo;
  }

  /// Right endpoint of the latest part; asserts on empty sets.
  Time max() const {
    assert(!parts_.empty());
    return parts_.back().hi;
  }

  const std::vector<Interval>& parts() const { return parts_; }

  friend bool operator==(const IntervalSet&, const IntervalSet&) = default;

 private:
  std::vector<Interval> parts_;  // disjoint, sorted by lo
};

/// Measure of the union of `intervals` — the span of an item list when the
/// intervals are the items' active intervals (paper §3.1, Figure 1).
inline Time unionMeasure(const std::vector<Interval>& intervals) {
  return IntervalSet(intervals).measure();
}

}  // namespace cdbp
