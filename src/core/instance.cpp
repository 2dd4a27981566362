#include "core/instance.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "core/epsilon.hpp"

namespace cdbp {

Instance::Instance(std::vector<Item> items) : items_(std::move(items)) {
  for (std::size_t i = 0; i < items_.size(); ++i) {
    Item& r = items_[i];
    if (!(r.size > 0) || !std::isfinite(r.size)) {
      throw InstanceError("item " + std::to_string(i) +
                          ": size must be finite and positive, got " +
                          std::to_string(r.size));
    }
    if (lt(kBinCapacity, r.size)) {
      throw InstanceError("item " + std::to_string(i) +
                          ": size exceeds the unit bin capacity: " +
                          std::to_string(r.size));
    }
    if (!std::isfinite(r.interval.lo) || !std::isfinite(r.interval.hi)) {
      throw InstanceError("item " + std::to_string(i) +
                          ": arrival/departure must be finite");
    }
    if (!(r.interval.hi > r.interval.lo)) {
      throw InstanceError("item " + std::to_string(i) +
                          ": departure must be strictly after arrival");
    }
    r.id = static_cast<ItemId>(i);
  }
}

std::vector<Item> Instance::sortedByArrival() const {
  std::vector<Item> order = items_;
  // Ids are positions, so items whose arrivals never decrease are already
  // in (arrival, id) order: a trace loads that way, and needs no sort.
  auto byArrival = [](const Item& a, const Item& b) {
    return a.arrival() < b.arrival();
  };
  if (std::is_sorted(order.begin(), order.end(), byArrival)) return order;
  std::stable_sort(order.begin(), order.end(), [](const Item& a, const Item& b) {
    if (a.arrival() != b.arrival()) return a.arrival() < b.arrival();
    return a.id < b.id;
  });
  return order;
}

double Instance::demand() const {
  double total = 0;
  for (const Item& r : items_) total += r.demand();
  return total;
}

IntervalSet Instance::activeUnion() const {
  IntervalSet set;
  for (const Item& r : items_) set.add(r.interval);
  return set;
}

Time Instance::span() const { return activeUnion().measure(); }

Time Instance::minDuration() const {
  Time best = kTimeInfinity;
  for (const Item& r : items_) best = std::min(best, r.duration());
  return items_.empty() ? 0 : best;
}

Time Instance::maxDuration() const {
  Time best = 0;
  for (const Item& r : items_) best = std::max(best, r.duration());
  return best;
}

double Instance::durationRatio() const {
  if (items_.empty()) return 1.0;
  return maxDuration() / minDuration();
}

std::vector<Time> Instance::eventTimes() const {
  std::set<Time> times;
  for (const Item& r : items_) {
    times.insert(r.arrival());
    times.insert(r.departure());
  }
  return {times.begin(), times.end()};
}

Size Instance::totalSizeAt(Time t) const {
  Size total = 0;
  for (const Item& r : items_) {
    if (r.activeAt(t)) total += r.size;
  }
  return total;
}

std::vector<ItemId> Instance::activeAt(Time t) const {
  std::vector<ItemId> ids;
  for (const Item& r : items_) {
    if (r.activeAt(t)) ids.push_back(r.id);
  }
  return ids;
}

std::size_t Instance::maxConcurrentItems() const {
  std::size_t best = 0;
  for (Time t : eventTimes()) best = std::max(best, activeAt(t).size());
  return best;
}

Size Instance::peakTotalSize() const {
  Size best = 0;
  for (Time t : eventTimes()) best = std::max(best, totalSizeAt(t));
  return best;
}

Instance Instance::filter(const std::vector<bool>& keep) const {
  std::vector<Item> kept;
  for (const Item& r : items_) {
    if (r.id < keep.size() && keep[r.id]) kept.push_back(r);
  }
  return Instance(std::move(kept));
}

}  // namespace cdbp
