// Building blocks shared by the three placement engines: the batch
// simulator (simulator.cpp), the streaming engine (streaming.cpp) and the
// sharded engine (sharded.cpp). All three commit a placement through the
// same kernel (commitPlacement), validate items and announcements through
// the same checks, and the two incremental engines replay the batch
// timeline order — departures in (time, id) order before each arrival —
// and maintain the incremental Proposition 3 bound the same way. Sharing
// the exact code is what makes their placements, lb3 doubles and drain
// orders bitwise identical rather than merely equivalent.
//
// This header is an implementation detail of the engines, not public API:
// nothing outside src/sim should include it.
#pragma once

#include <cmath>
#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>

#include "core/epsilon.hpp"
#include "core/item.hpp"
#include "core/types.hpp"
#include "online/policy.hpp"
#include "sim/bin_manager.hpp"
#include "sim/placement_view.hpp"
#include "sim/trace.hpp"
#include "telemetry/telemetry.hpp"

namespace cdbp::stream_internal {

/// One pending departure per arrived-but-not-departed item. Popped in
/// (time, id) order — the batch timeline's sort key, under which departures
/// precede arrivals at the same instant and simultaneous departures drain
/// in item-id order — so bin levels evolve through the identical sequence
/// of floating-point updates as in simulateOnline.
struct PendingDeparture {
  Time time;
  ItemId item;
  BinId bin;
  Size size;
};

/// std::push_heap/pop_heap maintain a max-heap w.r.t. the comparator;
/// "later departure wins" turns that into a min-heap on (time, id).
inline bool laterDeparture(const PendingDeparture& a,
                           const PendingDeparture& b) {
  if (a.time != b.time) return a.time > b.time;
  return a.item > b.item;
}

/// Incremental mirror of StepFunction::ceilIntegral(kSizeEps) over the
/// running total-size profile S(t): each event first settles the segment
/// since the previous event — skipping near-empty segments and snapping
/// near-integer levels, exactly as the batch bound does — then applies the
/// item's size delta. O(1) state; the price is that the running level is a
/// long alternating FP sum, so the result matches the batch bound to
/// accumulation order, not bitwise.
class IncrementalLb3 {
 public:
  void onEvent(Time t, double delta) {
    if (level_ > kSizeEps && t > last_) {
      double nearest = std::round(level_);
      double value =
          (std::fabs(level_ - nearest) <= kSizeEps) ? nearest : level_;
      total_ += std::ceil(value) * (t - last_);
    }
    last_ = t;
    level_ += delta;
  }

  double total() const { return total_; }

 private:
  double level_ = 0;
  double total_ = 0;
  Time last_ = 0;
};

/// The model checks every engine applies to an item it did not get from a
/// validated Instance: finite times, departure > arrival, size in (0, 1].
/// Throws std::invalid_argument, prefixing the message with `engine`.
inline void validateItem(const char* engine, ItemId id, Size size,
                         Time arrival, Time departure) {
  if (!std::isfinite(arrival) || !std::isfinite(departure)) {
    throw std::invalid_argument(std::string(engine) + ": item " +
                                std::to_string(id) + " has a non-finite time");
  }
  if (!(departure > arrival)) {
    throw std::invalid_argument(std::string(engine) + ": item " +
                                std::to_string(id) +
                                " departs at or before its arrival");
  }
  if (!std::isfinite(size) || !(size > 0) || lt(kBinCapacity, size)) {
    throw std::invalid_argument(std::string(engine) + ": item " +
                                std::to_string(id) +
                                " has size outside (0, 1]");
  }
}

/// Applies an `announce` hook (SimOptions/StreamOptions/ShardedOptions):
/// returns what the policy is shown for `item`. Only the departure may
/// change; anything else throws std::logic_error naming `options`.
inline Item announceItem(const std::function<Item(const Item&)>& announce,
                         const Item& item, const char* options) {
  if (!announce) return item;
  Item announced = announce(item);
  if (announced.id != item.id || announced.size != item.size ||
      announced.arrival() != item.arrival()) {
    throw std::logic_error(std::string(options) +
                           "::announce may only perturb the departure time");
  }
  return announced;
}

/// What commitPlacement reports: the decision record and the capacity
/// probes the policy's view counted.
struct Committed {
  PlacementRecord record;
  std::size_t probes = 0;
};

/// Throws the std::logic_error for a policy that chose a closed bin or one
/// without room for the item; out of line, off the per-item path.
[[noreturn]] inline void rejectPlacement(const OnlinePolicy& policy,
                                         ItemId item, BinId bin,
                                         bool binOpen) {
  if (!binOpen) {
    throw std::logic_error(policy.name() + " placed item " +
                           std::to_string(item) + " in closed bin " +
                           std::to_string(bin));
  }
  throw std::logic_error(policy.name() + " overfilled bin " +
                         std::to_string(bin) + " with item " +
                         std::to_string(item));
}

/// The one commit path of every engine. Shows `announced` to the policy
/// (departures up to its arrival already drained), opens the chosen new
/// bin or checks that the chosen bin is open and has room, adds the item
/// and records the per-placement telemetry. `announced` carries the true
/// id, size and arrival (announceItem guarantees it), so only its
/// departure may differ from the item the system evolves with. Throws
/// std::logic_error when the policy picks a closed or overfilled bin.
/// Forced inline: it is the body of every engine's per-item loop, and the
/// compiler's size heuristics otherwise leave it an out-of-line call.
[[gnu::always_inline]] inline Committed commitPlacement(
    BinManager& bins, OnlinePolicy& policy, const Item& announced) {
  const Time now = announced.arrival();
  PlacementView view(bins, now);
  const PlacementDecision decision = policy.place(view, announced);
  Committed out;
  PlacementRecord& record = out.record;
  record.item = announced.id;
  record.time = now;
  record.openedNewBin = decision.bin == kNewBin;
  // The state the policy decided against: the bin this item opens is not
  // counted.
  record.openBins = bins.openCount();
  BinId target = decision.bin;
  if (record.openedNewBin) {
    target = bins.openBin(decision.category, now);
    CDBP_TELEM_COUNT("sim.placements_new_bin", 1);
  } else {
    CDBP_TELEM_COUNT("sim.placements_existing_bin", 1);
    // Validation re-check: wouldFit is the uncounted twin of fits(), so
    // sim.fit_checks measures policy-issued queries only.
    if (!bins.wouldFit(target, announced.size)) {
      rejectPlacement(policy, announced.id, target, bins.info(target).open);
    }
  }
  const BinManager::BinInfo& bin = bins.info(target);
  record.bin = target;
  record.category = bin.category;
  record.binLevelBefore = bin.level;
  bins.addItem(target, announced.size);
  out.probes = view.probes();
  CDBP_TELEM_COUNT("sim.events_processed", 1);
  CDBP_TELEM_HIST("sim.item_size_permille", announced.size * 1000.0);
  return out;
}

}  // namespace cdbp::stream_internal
