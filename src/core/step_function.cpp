#include "core/step_function.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace cdbp {

std::map<Time, double>::iterator StepFunction::split(Time t) {
  auto it = points_.lower_bound(t);
  if (it != points_.end() && it->first == t) return it;
  // Value just before t: 0 if t precedes the first breakpoint.
  double value = (it == points_.begin()) ? 0.0 : std::prev(it)->second;
  return points_.emplace_hint(it, t, value);
}

void StepFunction::add(const Interval& I, double delta) {
  if (I.empty() || delta == 0) return;
  CDBP_DCHECK(std::isfinite(I.lo) && std::isfinite(I.hi) && std::isfinite(delta),
              "add: non-finite update [", I.lo, ", ", I.hi, ") += ", delta);
  auto hiIt = split(I.hi);  // split hi first so lo's split can't invalidate it
  auto loIt = split(I.lo);
  for (auto it = loIt; it != hiIt; ++it) it->second += delta;
  // Breakpoint monotonicity invariant: updates only touch [lo, hi), so the
  // trailing region (at and past the last key) always holds exactly 0.
  CDBP_DCHECK(points_.empty() || points_.rbegin()->second == 0.0,
              "add: trailing segment holds ", points_.rbegin()->second,
              " instead of 0");
}

double StepFunction::valueAt(Time t) const {
  auto it = points_.upper_bound(t);
  if (it == points_.begin()) return 0.0;
  return std::prev(it)->second;
}

double StepFunction::maxOver(const Interval& I) const {
  if (I.empty()) return 0.0;
  double best = valueAt(I.lo);
  for (auto it = points_.upper_bound(I.lo); it != points_.end() && it->first < I.hi;
       ++it) {
    best = std::max(best, it->second);
  }
  return best;
}

double StepFunction::minOver(const Interval& I) const {
  if (I.empty()) return 0.0;
  double best = valueAt(I.lo);
  for (auto it = points_.upper_bound(I.lo); it != points_.end() && it->first < I.hi;
       ++it) {
    best = std::min(best, it->second);
  }
  return best;
}

double StepFunction::maxValue() const {
  double best = 0.0;
  for (const auto& [t, v] : points_) best = std::max(best, v);
  return best;
}

double StepFunction::integral() const {
  double total = 0.0;
  for (auto it = points_.begin(); it != points_.end(); ++it) {
    auto next = std::next(it);
    if (next == points_.end()) break;  // trailing region holds value 0
    total += it->second * (next->first - it->first);
  }
  return total;
}

double StepFunction::integralOver(const Interval& I) const {
  if (I.empty()) return 0.0;
  double total = 0.0;
  Time cursor = I.lo;
  double value = valueAt(I.lo);
  for (auto it = points_.upper_bound(I.lo); it != points_.end() && it->first < I.hi;
       ++it) {
    total += value * (it->first - cursor);
    cursor = it->first;
    value = it->second;
  }
  total += value * (I.hi - cursor);
  return total;
}

double StepFunction::ceilIntegral(double eps) const {
  double total = 0.0;
  for (auto it = points_.begin(); it != points_.end(); ++it) {
    auto next = std::next(it);
    if (next == points_.end()) break;
    if (it->second <= eps) continue;
    double nearest = std::round(it->second);
    double value = (std::fabs(it->second - nearest) <= eps) ? nearest : it->second;
    total += std::ceil(value) * (next->first - it->first);
  }
  return total;
}

Time StepFunction::supportMeasure(double eps) const {
  Time total = 0.0;
  for (auto it = points_.begin(); it != points_.end(); ++it) {
    auto next = std::next(it);
    if (next == points_.end()) break;
    if (it->second > eps) total += next->first - it->first;
  }
  return total;
}

std::vector<StepFunction::Segment> StepFunction::segments() const {
  std::vector<Segment> out;
  for (auto it = points_.begin(); it != points_.end(); ++it) {
    auto next = std::next(it);
    if (next == points_.end()) break;
    if (it->second != 0.0) {
      out.push_back({Interval{it->first, next->first}, it->second});
    }
  }
  return out;
}

StepFunction StepFunction::sumOf(const std::vector<Segment>& pieces) {
  struct Endpoint {
    Time time;
    double delta;
    bool start;
  };
  std::vector<Endpoint> endpoints;
  endpoints.reserve(2 * pieces.size());
  for (const Segment& piece : pieces) {
    const Interval& I = piece.interval;
    if (I.empty() || piece.value == 0) continue;
    CDBP_DCHECK(std::isfinite(I.lo) && std::isfinite(I.hi) &&
                    std::isfinite(piece.value),
                "sumOf: non-finite piece [", I.lo, ", ", I.hi, ") += ",
                piece.value);
    endpoints.push_back({I.lo, piece.value, true});
    endpoints.push_back({I.hi, -piece.value, false});
  }
  // Ends before starts at one instant, so the sum restarts from an exact 0
  // when every active piece ends at t and new ones start at t.
  std::sort(endpoints.begin(), endpoints.end(),
            [](const Endpoint& a, const Endpoint& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.start < b.start;
            });

  StepFunction f;
  std::size_t active = 0;
  double sum = 0.0;
  double compensation = 0.0;  // Neumaier: the low-order bits sum dropped
  for (std::size_t i = 0; i < endpoints.size();) {
    const Time t = endpoints[i].time;
    for (; i < endpoints.size() && endpoints[i].time == t; ++i) {
      const Endpoint& e = endpoints[i];
      if (e.start) {
        ++active;
      } else if (--active == 0) {
        sum = compensation = 0.0;
        continue;
      }
      double next = sum + e.delta;
      compensation += std::fabs(sum) >= std::fabs(e.delta)
                          ? (sum - next) + e.delta
                          : (e.delta - next) + sum;
      sum = next;
    }
    // Recorded once every endpoint at t is applied: half-open pieces that
    // only touch at t never add up.
    f.points_.emplace_hint(f.points_.end(), t, sum + compensation);
  }
  return f;
}

std::vector<Time> StepFunction::breakpoints() const {
  std::vector<Time> out;
  out.reserve(points_.size());
  for (const auto& [t, v] : points_) out.push_back(t);
  return out;
}

void StepFunction::normalize() {
  double prev = 0.0;
  for (auto it = points_.begin(); it != points_.end();) {
    if (it->second == prev) {
      it = points_.erase(it);
    } else {
      prev = it->second;
      ++it;
    }
  }
}

}  // namespace cdbp
