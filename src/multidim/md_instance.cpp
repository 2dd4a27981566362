#include "multidim/md_instance.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/epsilon.hpp"
#include "core/instance.hpp"

namespace cdbp {

MdInstance::MdInstance(std::vector<MdItem> items) : items_(std::move(items)) {
  if (!items_.empty()) dims_ = items_.front().demand.dims();
  for (std::size_t i = 0; i < items_.size(); ++i) {
    MdItem& r = items_[i];
    if (r.demand.dims() != dims_ || dims_ == 0) {
      throw InstanceError("md item " + std::to_string(i) +
                          ": inconsistent or zero dimensionality");
    }
    bool anyPositive = false;
    for (double v : r.demand.values()) {
      if (!std::isfinite(v) || v < 0 || lt(kBinCapacity, v)) {
        throw InstanceError("md item " + std::to_string(i) +
                            ": coordinate out of [0, 1]: " + std::to_string(v));
      }
      anyPositive |= v > 0;
    }
    if (!anyPositive) {
      throw InstanceError("md item " + std::to_string(i) +
                          ": demand vector is all zero");
    }
    if (!std::isfinite(r.interval.lo) || !std::isfinite(r.interval.hi) ||
        !(r.interval.hi > r.interval.lo)) {
      throw InstanceError("md item " + std::to_string(i) + ": invalid interval");
    }
    r.id = static_cast<ItemId>(i);
  }
}

std::vector<MdItem> MdInstance::sortedByArrival() const {
  std::vector<MdItem> order = items_;
  std::stable_sort(order.begin(), order.end(),
                   [](const MdItem& a, const MdItem& b) {
                     if (a.arrival() != b.arrival()) return a.arrival() < b.arrival();
                     return a.id < b.id;
                   });
  return order;
}

StepFunction MdInstance::dimensionProfile(std::size_t d) const {
  std::vector<StepFunction::Segment> pieces;
  pieces.reserve(items_.size());
  for (const MdItem& r : items_) pieces.push_back({r.interval, r.demand[d]});
  return StepFunction::sumOf(pieces);
}

Time MdInstance::span() const {
  IntervalSet set;
  for (const MdItem& r : items_) set.add(r.interval);
  return set.measure();
}

Time MdInstance::minDuration() const {
  Time best = kTimeInfinity;
  for (const MdItem& r : items_) best = std::min(best, r.duration());
  return items_.empty() ? 0 : best;
}

Time MdInstance::maxDuration() const {
  Time best = 0;
  for (const MdItem& r : items_) best = std::max(best, r.duration());
  return best;
}

double MdInstance::durationRatio() const {
  if (items_.empty()) return 1.0;
  return maxDuration() / minDuration();
}

std::vector<double> MdInstance::coordinateSizes(std::size_t d) const {
  std::vector<double> sizes;
  for (const MdItem& r : items_) {
    if (r.demand[d] > 0) sizes.push_back(r.demand[d]);
  }
  return sizes;
}

}  // namespace cdbp
