// Instance: an immutable list of items to pack, plus derived statistics.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "core/interval.hpp"
#include "core/item.hpp"
#include "core/types.hpp"

namespace cdbp {

/// Thrown when an instance violates the model's preconditions
/// (size outside (0,1], departure <= arrival, ...).
class InstanceError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// A MinUsageTime DBP problem instance: the item list R.
///
/// Construction validates every item against the model of §3.1 and
/// renumbers ids densely in the order given. Use `sortedByArrival()` to get
/// the arrival-order view that online algorithms consume.
class Instance {
 public:
  Instance() = default;

  /// Validates and adopts `items`. Item ids are reassigned to the position
  /// of each item in the list.
  explicit Instance(std::vector<Item> items);

  const std::vector<Item>& items() const { return items_; }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  const Item& operator[](ItemId id) const { return items_[id]; }

  /// Items ordered by (arrival, id) — the order in which an online
  /// algorithm sees them.
  std::vector<Item> sortedByArrival() const;

  /// Total time-space demand d(R) = sum s(r) * l(I(r)) (Proposition 1).
  double demand() const;

  /// Span of R: measure of the union of all active intervals
  /// (Proposition 2).
  Time span() const;

  /// The union of active intervals as a normalized interval set.
  IntervalSet activeUnion() const;

  /// Minimum item duration Delta; 0 for an empty instance.
  Time minDuration() const;

  /// Maximum item duration; 0 for an empty instance.
  Time maxDuration() const;

  /// mu = max duration / min duration; 1 for an empty instance.
  double durationRatio() const;

  /// All distinct event times (arrivals and departures), sorted.
  std::vector<Time> eventTimes() const;

  /// Total size of active items at time t: S(t).
  Size totalSizeAt(Time t) const;

  /// Ids of items active at time t.
  std::vector<ItemId> activeAt(Time t) const;

  /// Maximum over time of the number of simultaneously active items.
  std::size_t maxConcurrentItems() const;

  /// Maximum over time of S(t).
  Size peakTotalSize() const;

  /// A new instance holding only the items selected by `keep[id]`.
  /// Ids are re-densified.
  Instance filter(const std::vector<bool>& keep) const;

 private:
  std::vector<Item> items_;
};

/// Convenience builder used pervasively in tests and examples.
///
///   Instance inst = InstanceBuilder()
///       .add(0.5, 0.0, 4.0)
///       .add(0.25, 1.0, 3.0)
///       .build();
class InstanceBuilder {
 public:
  /// Appends an item with the given size active on [arrival, departure).
  InstanceBuilder& add(Size size, Time arrival, Time departure) {
    items_.emplace_back(static_cast<ItemId>(items_.size()), size, arrival, departure);
    return *this;
  }

  /// Reserves room for `count` items (no effect on the built instance).
  InstanceBuilder& reserve(std::size_t count) {
    items_.reserve(count);
    return *this;
  }

  Instance build() { return Instance(std::move(items_)); }

 private:
  std::vector<Item> items_;
};

}  // namespace cdbp
