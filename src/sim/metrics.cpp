#include "sim/metrics.hpp"

#include "core/lower_bounds.hpp"

namespace cdbp {

PackingMetrics computeMetrics(const Packing& packing) {
  PackingMetrics metrics;
  metrics.totalUsage = packing.totalUsage();
  metrics.binsUsed = packing.numBins();
  for (std::size_t b = 0; b < packing.numBins(); ++b) {
    const PackedBin& bin = packing.bin(static_cast<BinId>(b));
    metrics.binUsages.add(bin.usage());
    for (const Interval& busy : bin.busyPeriods().parts()) {
      metrics.rentalLengths.add(busy.length());
    }
  }
  StepFunction openProfile = packing.openBinProfile();
  metrics.maxConcurrentBins =
      static_cast<std::size_t>(openProfile.maxValue() + 0.5);
  Time span = packing.instance().span();
  metrics.avgOpenBins = span > 0 ? openProfile.integral() / span : 0.0;
  double demand = packing.instance().demand();
  metrics.utilization =
      metrics.totalUsage > 0 ? demand / metrics.totalUsage : 0.0;
  metrics.wastedTime = metrics.totalUsage - demand;
  return metrics;
}

std::vector<std::pair<Time, double>> openBinTimeSeries(const Packing& packing,
                                                       std::size_t samples) {
  std::vector<std::pair<Time, double>> series;
  if (packing.instance().empty() || samples == 0) return series;
  IntervalSet active = packing.instance().activeUnion();
  Time lo = active.min();
  Time hi = active.max();
  StepFunction profile = packing.openBinProfile();
  series.reserve(samples + 1);
  for (std::size_t i = 0; i <= samples; ++i) {
    Time t = lo + (hi - lo) * static_cast<double>(i) /
                      static_cast<double>(samples);
    series.emplace_back(t, profile.valueAt(t));
  }
  return series;
}

}  // namespace cdbp
