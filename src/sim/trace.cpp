#include "sim/trace.hpp"

#include <ostream>

namespace cdbp {

double DecisionTrace::newBinRate() const {
  if (records_.empty()) return 0.0;
  std::size_t opened = 0;
  for (const PlacementRecord& r : records_) {
    if (r.openedNewBin) ++opened;
  }
  return static_cast<double>(opened) / static_cast<double>(records_.size());
}

double DecisionTrace::meanOpenBins() const {
  if (records_.empty()) return 0.0;
  double total = 0;
  for (const PlacementRecord& r : records_) {
    total += static_cast<double>(r.openBins);
  }
  return total / static_cast<double>(records_.size());
}

void DecisionTrace::writeCsv(std::ostream& out) const {
  writeCsvHeader(out);
  for (const PlacementRecord& r : records_) writeCsvRow(out, r);
}

void DecisionTrace::writeCsvHeader(std::ostream& out) {
  out << "item,time,bin,new,category,openBins,levelBefore\n";
  out.precision(17);
}

void DecisionTrace::writeCsvRow(std::ostream& out, const PlacementRecord& r) {
  out << r.item << ',' << r.time << ',' << r.bin << ','
      << (r.openedNewBin ? 1 : 0) << ',' << r.category << ',' << r.openBins
      << ',' << r.binLevelBefore << '\n';
}

}  // namespace cdbp
