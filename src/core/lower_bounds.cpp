#include "core/lower_bounds.hpp"

#include <algorithm>
#include <vector>

#include "core/epsilon.hpp"

namespace cdbp {

StepFunction totalSizeProfile(const Instance& instance) {
  std::vector<StepFunction::Segment> pieces;
  pieces.reserve(instance.size());
  for (const Item& r : instance.items()) pieces.push_back({r.interval, r.size});
  return StepFunction::sumOf(pieces);
}

double LowerBounds::best() const {
  return std::max({demand, span, ceilIntegral});
}

LowerBounds lowerBounds(const Instance& instance) {
  LowerBounds lb;
  lb.demand = instance.demand();
  StepFunction profile = totalSizeProfile(instance);
  lb.span = profile.supportMeasure(kSizeEps);
  lb.ceilIntegral = profile.ceilIntegral(kSizeEps);
  return lb;
}

}  // namespace cdbp
