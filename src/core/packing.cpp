#include "core/packing.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/epsilon.hpp"

namespace cdbp {

Packing::Packing(const Instance& instance, std::vector<BinId> binOf)
    : instance_(&instance), binOf_(std::move(binOf)) {
  if (binOf_.size() != instance.size()) {
    throw std::invalid_argument("Packing: assignment size (" +
                                std::to_string(binOf_.size()) +
                                ") does not match instance size (" +
                                std::to_string(instance.size()) + ")");
  }
  BinId maxBin = -1;
  for (BinId b : binOf_) maxBin = std::max(maxBin, b);
  bins_.resize(static_cast<std::size_t>(maxBin + 1));
  // Size each id list exactly: doubling growth leaves up to n ids of slack.
  std::vector<std::size_t> counts(bins_.size(), 0);
  for (BinId b : binOf_) {
    if (b >= 0) ++counts[static_cast<std::size_t>(b)];
  }
  for (std::size_t b = 0; b < bins_.size(); ++b) {
    bins_[b].items_.reserve(counts[b]);
  }
  for (ItemId id = 0; id < binOf_.size(); ++id) {
    BinId b = binOf_[id];
    if (b >= 0) bins_[static_cast<std::size_t>(b)].items_.push_back(id);
  }
  std::vector<Interval> intervals;
  for (PackedBin& bin : bins_) {
    intervals.clear();
    for (ItemId id : bin.items_) intervals.push_back(instance[id].interval);
    bin.busy_ = IntervalSet(intervals);
  }
}

Time Packing::totalUsage() const {
  Time total = 0;
  for (const PackedBin& bin : bins_) total += bin.usage();
  return total;
}

std::size_t Packing::openBinsAt(Time t) const {
  std::size_t open = 0;
  for (const PackedBin& bin : bins_) {
    if (bin.busyPeriods().contains(t)) ++open;
  }
  return open;
}

StepFunction Packing::openBinProfile() const {
  std::vector<StepFunction::Segment> pieces;
  for (const PackedBin& bin : bins_) {
    for (const Interval& busy : bin.busyPeriods().parts()) {
      pieces.push_back({busy, 1.0});
    }
  }
  return StepFunction::sumOf(pieces);
}

std::size_t Packing::maxConcurrentBins() const {
  return static_cast<std::size_t>(openBinProfile().maxValue() + 0.5);
}

double Packing::averageUtilization() const {
  Time usage = totalUsage();
  if (usage <= 0) return 0.0;
  return instance_->demand() / usage;
}

std::optional<std::string> Packing::validate() const {
  for (const Item& r : instance_->items()) {
    if (binOf_[r.id] < 0) {
      return "item " + std::to_string(r.id) + " is unassigned";
    }
  }
  for (std::size_t b = 0; b < bins_.size(); ++b) {
    if (bins_[b].items_.empty()) {
      return "bin ids are not dense: bin " + std::to_string(b) + " is empty";
    }
    std::vector<StepFunction::Segment> pieces;
    pieces.reserve(bins_[b].items_.size());
    for (ItemId id : bins_[b].items_) {
      const Item& r = (*instance_)[id];
      pieces.push_back({r.interval, r.size});
    }
    Size peak = StepFunction::sumOf(pieces).maxValue();
    if (!leq(peak, kBinCapacity)) {
      return "bin " + std::to_string(b) + " exceeds capacity: peak level " +
             std::to_string(peak);
    }
  }
  return std::nullopt;
}

}  // namespace cdbp
