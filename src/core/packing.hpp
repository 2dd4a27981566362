// Packing: an assignment of items to bins, with validation and metrics.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/interval.hpp"
#include "core/step_function.hpp"
#include "core/types.hpp"
#include "util/check.hpp"

namespace cdbp {

/// What a Packing keeps of one bin: the periods it is non-empty and the ids
/// of its items. There is no level profile; Packing::validate() sweeps the
/// levels when asked.
class PackedBin {
 public:
  /// Usage time of the bin: measure of the time it is non-empty (the span
  /// of its items).
  Time usage() const { return busy_.measure(); }

  /// The busy periods of the bin as a normalized interval set.
  const IntervalSet& busyPeriods() const { return busy_; }

  /// Ids of the items placed in the bin, in increasing id order.
  const std::vector<ItemId>& items() const { return items_; }

 private:
  friend class Packing;
  IntervalSet busy_;
  std::vector<ItemId> items_;
};

/// The result of running a packing algorithm on an Instance: bin id per
/// item. Bin ids must be dense 0..numBins-1 in bin-opening order (the order
/// is only used for reporting; feasibility does not depend on it).
///
/// Lifetime: a Packing references the Instance it was built from (it does
/// not copy it). The instance must outlive the packing and keep a stable
/// address — wrap it in a shared_ptr if the packing is returned past the
/// instance's scope (see FlexibleSchedule for the pattern).
class Packing {
 public:
  Packing() = default;

  /// `binOf[id]` is the bin of item `id`; every item must be assigned.
  Packing(const Instance& instance, std::vector<BinId> binOf);

  const Instance& instance() const { return *instance_; }
  const std::vector<BinId>& binOf() const { return binOf_; }
  BinId binOf(ItemId id) const {
    CDBP_DCHECK(id < binOf_.size(), "binOf: item ", id, " out of range");
    return binOf_[id];
  }
  std::size_t numBins() const { return bins_.size(); }

  /// The busy periods and items of bin b.
  const PackedBin& bin(BinId b) const {
    CDBP_DCHECK(b >= 0 && static_cast<std::size_t>(b) < bins_.size(),
                "bin: id ", b, " out of range");
    return bins_[static_cast<std::size_t>(b)];
  }

  /// Total bin usage time — the MinUsageTime objective.
  Time totalUsage() const;

  /// Usage time of a single bin (span of its items).
  Time binUsage(BinId b) const { return bin(b).usage(); }

  /// Number of bins that are non-empty at time t.
  std::size_t openBinsAt(Time t) const;

  /// Maximum over time of the number of concurrently non-empty bins (the
  /// classical DBP objective, reported for context).
  std::size_t maxConcurrentBins() const;

  /// The open-bin-count step function over time.
  StepFunction openBinProfile() const;

  /// Average level of non-empty bins, integrated over busy time, divided by
  /// total usage: a utilization figure in (0, 1].
  double averageUtilization() const;

  /// Returns an error description if the packing is infeasible (a bin's
  /// level exceeds the unit capacity by more than kSizeEps somewhere, an
  /// item is unassigned, or bin ids are not dense), or std::nullopt when
  /// valid. Each bin's level profile is swept from its items on demand
  /// (StepFunction::sumOf); intervals are half-open, so items that only
  /// touch never add up.
  std::optional<std::string> validate() const;

 private:
  const Instance* instance_ = nullptr;
  std::vector<BinId> binOf_;
  std::vector<PackedBin> bins_;
};

}  // namespace cdbp
