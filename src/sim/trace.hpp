// Decision tracing for the online simulator: an optional per-item record
// of what the policy saw and chose, exportable as CSV for debugging and
// offline analysis of policy behavior.
#pragma once

#include <iosfwd>
#include <vector>

#include "core/types.hpp"

namespace cdbp {

struct PlacementRecord {
  ItemId item = 0;
  Time time = 0;            ///< arrival instant of the decision
  BinId bin = 0;            ///< chosen bin (global id)
  bool openedNewBin = false;
  int category = 0;         ///< category of the chosen bin
  std::size_t openBins = 0;   ///< open bins at decision time (before placing)
  double binLevelBefore = 0;  ///< level of the chosen bin before placing
};

class DecisionTrace {
 public:
  void record(PlacementRecord record) { records_.push_back(record); }

  const std::vector<PlacementRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  /// Fraction of decisions that opened a new bin.
  double newBinRate() const;

  /// Mean open-bin count observed across decisions (the scan-cost proxy
  /// for First Fit style policies).
  double meanOpenBins() const;

  /// CSV export: item,time,bin,new,category,openBins,levelBefore.
  void writeCsv(std::ostream& out) const;

  /// The pieces of writeCsv, for callers that stream records as they come
  /// instead of collecting them: the header row (it also sets the stream's
  /// precision to round-trip doubles), then one row per record.
  static void writeCsvHeader(std::ostream& out);
  static void writeCsvRow(std::ostream& out, const PlacementRecord& r);

  void clear() { records_.clear(); }

 private:
  std::vector<PlacementRecord> records_;
};

}  // namespace cdbp
