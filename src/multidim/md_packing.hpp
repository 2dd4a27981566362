// Assignment, validation and usage accounting for multi-dimensional
// packings.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/interval.hpp"
#include "multidim/md_instance.hpp"

namespace cdbp {

class MdPacking {
 public:
  MdPacking() = default;
  MdPacking(const MdInstance& instance, std::vector<BinId> binOf);

  const MdInstance& instance() const { return *instance_; }
  BinId binOf(ItemId id) const { return binOf_[id]; }
  const std::vector<BinId>& binOf() const { return binOf_; }
  std::size_t numBins() const { return numBins_; }

  /// Usage time of one bin (span of the items placed in it).
  Time binUsage(BinId b) const { return busy_[static_cast<std::size_t>(b)].measure(); }

  /// The MinUsageTime objective.
  Time totalUsage() const;

  /// Bins that are non-empty at time t.
  std::size_t openBinsAt(Time t) const;

  /// Error description if infeasible (any dimension of any bin exceeds the
  /// unit capacity somewhere), or nullopt when valid. Like
  /// Packing::validate(), each bin's per-dimension level profile is swept
  /// from its items on demand (StepFunction::sumOf); intervals are
  /// half-open, so items that only touch never add up.
  std::optional<std::string> validate() const;

 private:
  const MdInstance* instance_ = nullptr;
  std::vector<BinId> binOf_;
  std::size_t numBins_ = 0;
  std::vector<IntervalSet> busy_;  // per bin
};

}  // namespace cdbp
