// Piecewise-constant functions of time.
//
// The workhorse data structure of cdbp: bin level profiles, the aggregate
// demand curve S(t), the demand chart's ceiling, and open-bin counts are all
// step functions. Supports range-add updates and range queries (max, value,
// integral, ceil-integral, support measure).
#pragma once

#include <map>
#include <vector>

#include "core/interval.hpp"
#include "core/types.hpp"

namespace cdbp {

/// A right-continuous piecewise-constant function f: Time -> double that is
/// zero outside finitely many segments. Internally a sorted map from segment
/// start time to the value held on [start, next-start).
class StepFunction {
 public:
  StepFunction() = default;

  /// f(t) += delta for all t in [I.lo, I.hi). No-op for empty intervals.
  void add(const Interval& I, double delta);

  /// Value f(t).
  double valueAt(Time t) const;

  /// max f over [I.lo, I.hi); 0 for empty intervals. Note a range that lies
  /// entirely outside the support evaluates to the function's value there
  /// (i.e. 0).
  double maxOver(const Interval& I) const;

  /// min f over [I.lo, I.hi); 0 for empty intervals.
  double minOver(const Interval& I) const;

  /// Global maximum of f (0 if f is identically zero).
  double maxValue() const;

  /// Integral of f over its whole support.
  double integral() const;

  /// Integral of f over [I.lo, I.hi).
  double integralOver(const Interval& I) const;

  /// Integral of ceil(f) over the region where f > eps. This is the
  /// Proposition 3 bound when f = S(t). Values within `eps` of an integer
  /// are rounded to it before taking the ceiling, so accumulated
  /// floating-point noise does not inflate the bound.
  double ceilIntegral(double eps) const;

  /// Measure of { t : f(t) > eps } (the span when f is a level profile).
  Time supportMeasure(double eps) const;

  /// The segments [start, end) with their values, including only segments
  /// where the stored value is non-zero. Sorted by start.
  struct Segment {
    Interval interval;
    double value = 0;
  };
  std::vector<Segment> segments() const;

  /// The sum over `pieces` of `value` on each piece's interval, built by
  /// one sorted sweep over the endpoints: O(n log n), where n add() calls
  /// walk every breakpoint under each interval. Leaves exactly the
  /// breakpoints those add() calls would. The running sum is compensated
  /// and restarts from an exact 0 wherever no piece is active, so values
  /// match add()'s to within rounding, and bitwise when every partial sum
  /// is exact (integer counts).
  static StepFunction sumOf(const std::vector<Segment>& pieces);

  /// All segment breakpoints (including the leading/trailing zero regions'
  /// boundaries), sorted.
  std::vector<Time> breakpoints() const;

  bool empty() const { return points_.empty(); }

  /// Drops internal breakpoints whose removal does not change the function
  /// (adjacent equal values). Queries are unaffected; this is an
  /// optimization for long-running simulations.
  void normalize();

 private:
  // Ensures a breakpoint exists exactly at t and returns the iterator to it.
  std::map<Time, double>::iterator split(Time t);

  // Maps segment start -> value on [start, next key). The function is 0
  // before the first key. The last key always holds value 0 (the trailing
  // zero region) once any add() happened.
  std::map<Time, double> points_;
};

}  // namespace cdbp
