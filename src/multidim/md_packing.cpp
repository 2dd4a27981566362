#include "multidim/md_packing.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/epsilon.hpp"
#include "core/step_function.hpp"

namespace cdbp {

namespace {

// Item ids per bin, in id order; unassigned items are left out.
std::vector<std::vector<ItemId>> itemsByBin(const std::vector<BinId>& binOf,
                                            std::size_t numBins) {
  std::vector<std::vector<ItemId>> items(numBins);
  for (ItemId id = 0; id < binOf.size(); ++id) {
    if (binOf[id] >= 0) items[static_cast<std::size_t>(binOf[id])].push_back(id);
  }
  return items;
}

}  // namespace

MdPacking::MdPacking(const MdInstance& instance, std::vector<BinId> binOf)
    : instance_(&instance), binOf_(std::move(binOf)) {
  if (binOf_.size() != instance.size()) {
    throw std::invalid_argument("MdPacking: assignment size mismatch");
  }
  BinId maxBin = -1;
  for (BinId b : binOf_) maxBin = std::max(maxBin, b);
  numBins_ = static_cast<std::size_t>(maxBin + 1);
  busy_.reserve(numBins_);
  std::vector<Interval> intervals;
  for (const std::vector<ItemId>& ids : itemsByBin(binOf_, numBins_)) {
    intervals.clear();
    for (ItemId id : ids) intervals.push_back(instance[id].interval);
    busy_.emplace_back(intervals);
  }
}

Time MdPacking::totalUsage() const {
  Time total = 0;
  for (const IntervalSet& busy : busy_) total += busy.measure();
  return total;
}

std::size_t MdPacking::openBinsAt(Time t) const {
  std::size_t open = 0;
  for (const IntervalSet& busy : busy_) {
    if (busy.contains(t)) ++open;
  }
  return open;
}

std::optional<std::string> MdPacking::validate() const {
  for (const MdItem& r : instance_->items()) {
    if (binOf_[r.id] < 0) {
      return "md item " + std::to_string(r.id) + " is unassigned";
    }
  }
  const std::vector<std::vector<ItemId>> items = itemsByBin(binOf_, numBins_);
  std::vector<StepFunction::Segment> pieces;
  for (std::size_t b = 0; b < numBins_; ++b) {
    if (items[b].empty()) {
      return "bin ids are not dense: bin " + std::to_string(b);
    }
    for (std::size_t d = 0; d < instance_->dims(); ++d) {
      pieces.clear();
      for (ItemId id : items[b]) {
        const MdItem& r = (*instance_)[id];
        pieces.push_back({r.interval, r.demand[d]});
      }
      double peak = StepFunction::sumOf(pieces).maxValue();
      if (!leq(peak, kBinCapacity)) {
        return "bin " + std::to_string(b) + " dimension " + std::to_string(d) +
               " exceeds capacity: peak " + std::to_string(peak);
      }
    }
  }
  return std::nullopt;
}

}  // namespace cdbp
