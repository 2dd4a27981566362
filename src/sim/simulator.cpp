#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "core/epsilon.hpp"
#include "sim/placement_view.hpp"
#include "sim/sharded.hpp"
#include "telemetry/telemetry.hpp"

namespace cdbp {

namespace {

// Trace rows: items land on their bin's row inside the "placements"
// process.
constexpr int kTracePid = 1;

// The timeline is replayed in (time, kind, item) order: departures before
// arrivals at the same instant (half-open intervals: an item leaving at t
// does not overlap one arriving at t), simultaneous departures in item-id
// order — exactly the (time, id) pop order of the stream engine's heap, so
// bin levels evolve through the identical sequence of floating-point
// updates. Only the n departure records are sorted; the arrivals come in
// (arrival, id) order and the loop merges the two.
struct Departure {
  Time time;
  ItemId item;
};

bool departsBefore(const Departure& a, const Departure& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.item < b.item;
}

}  // namespace

SimResult simulateOnline(const Instance& instance, OnlinePolicy& policy,
                         const SimOptions& options) {
  if (options.engine == PlacementEngine::kSharded) {
    if (options.trace != nullptr || options.chromeTrace != nullptr) {
      throw std::invalid_argument(
          "simulateOnline: the sharded engine does not produce decision or "
          "chrome traces; use kIndexed for trace runs");
    }
    ShardedOptions shardedOptions;
    shardedOptions.threads = options.shardedThreads;
    shardedOptions.announce = options.announce;
    shardedOptions.capturePlacements = true;
    ShardedSimulator sim(policy, shardedOptions);
    // sortedByArrival() orders by (arrival, id) — the batch timeline's
    // arrival order — with the instance's own (dense) item ids, so the
    // reconstructed binOf indexes straight into the Packing.
    for (const Item& r : instance.sortedByArrival()) sim.feed(r);
    ShardedResult sharded = sim.finish();
    if (sharded.binOf.size() < instance.size()) {
      sharded.binOf.resize(instance.size(), kUnassigned);
    }
    SimResult result;
    result.packing = Packing(instance, std::move(sharded.binOf));
    result.totalUsage = sharded.totalUsage;
    result.binsOpened = sharded.binsOpened;
    result.maxOpenBins = sharded.maxOpenBins;
    result.categoriesUsed = sharded.categoriesUsed;
    return result;
  }

  policy.reset();
  BinManager bins(options.engine == PlacementEngine::kIndexed);
  std::vector<BinId> binOf(instance.size(), kUnassigned);
  std::size_t maxOpen = 0;

  if (options.chromeTrace) {
    options.chromeTrace->setProcessName(kTracePid,
                                        "cdbp simulation: " + policy.name());
  }

  // Departures in (time, id) order. An item's departure sorts strictly
  // after its arrival (durations are positive), so a departure record is
  // always reached after its item was placed.
  const std::vector<Item>& items = instance.items();
  std::vector<Departure> departures;
  departures.reserve(items.size());
  for (const Item& r : items) departures.push_back({r.departure(), r.id});
  std::sort(departures.begin(), departures.end(), departsBefore);

  // Arrivals in (arrival, id) order. Ids are positions, so an instance
  // whose arrivals never decrease is already in that order.
  std::vector<ItemId> arrivalOrder;
  const bool inArrivalOrder = std::is_sorted(
      items.begin(), items.end(),
      [](const Item& a, const Item& b) { return a.arrival() < b.arrival(); });
  if (!inArrivalOrder) {
    arrivalOrder.resize(items.size());
    std::iota(arrivalOrder.begin(), arrivalOrder.end(), ItemId{0});
    std::stable_sort(arrivalOrder.begin(), arrivalOrder.end(),
                     [&](ItemId a, ItemId b) {
                       return instance[a].arrival() < instance[b].arrival();
                     });
  }

  auto processDeparture = [&](const Departure& d) {
    bins.removeItem(binOf[d.item], instance[d.item].size);
    CDBP_TELEM_COUNT("sim.events_processed", 1);
    if (options.chromeTrace) {
      options.chromeTrace->addCounter("open_bins",
                                      d.time * options.traceTimeScale,
                                      kTracePid,
                                      static_cast<double>(bins.openCount()));
    }
  };

  std::size_t cursor = 0;
  for (std::size_t k = 0; k < items.size(); ++k) {
    const Item& r = inArrivalOrder ? items[k] : instance[arrivalOrder[k]];
    // Batched draining: departures due by this arrival release capacity
    // back to back with no per-item heap traffic.
    while (cursor < departures.size() &&
           departures[cursor].time <= r.arrival()) {
      processDeparture(departures[cursor++]);
    }

    Item announced = r;
    if (options.announce) {
      announced = options.announce(r);
      if (announced.id != r.id || announced.size != r.size ||
          announced.arrival() != r.arrival()) {
        throw std::logic_error(
            "SimOptions::announce may only perturb the departure time");
      }
    }

    PlacementView view(bins, r.arrival());
    PlacementDecision decision = policy.place(view, announced);
    // Scan cost of this placement: the probes its view counted.
    CDBP_TELEM_HIST("sim.bins_scanned_per_placement", view.probes());
    BinId target = decision.bin;
    if (target == kNewBin) {
      target = bins.openBin(decision.category, r.arrival());
      CDBP_TELEM_COUNT("sim.placements_new_bin", 1);
    } else {
      CDBP_TELEM_COUNT("sim.placements_existing_bin", 1);
      if (!bins.info(target).open) {
        throw std::logic_error(policy.name() + " placed item " +
                               std::to_string(r.id) + " in closed bin " +
                               std::to_string(target));
      }
      // Validation re-check: wouldFit is the uncounted twin of fits(), so
      // sim.fit_checks measures policy-issued queries only.
      if (!bins.wouldFit(target, r.size)) {
        throw std::logic_error(policy.name() + " overfilled bin " +
                               std::to_string(target) + " with item " +
                               std::to_string(r.id));
      }
    }
    if (options.trace) {
      PlacementRecord record;
      record.item = r.id;
      record.time = r.arrival();
      record.bin = target;
      record.openedNewBin = decision.bin == kNewBin;
      record.category = bins.info(target).category;
      // Count excludes the bin just opened for this item, so the field
      // reflects the state the policy decided against.
      record.openBins = bins.openCount() - (decision.bin == kNewBin ? 1 : 0);
      record.binLevelBefore = bins.info(target).level;
      options.trace->record(record);
    }
    bins.addItem(target, r.size);
    binOf[r.id] = target;
    maxOpen = std::max(maxOpen, bins.openCount());
    CDBP_TELEM_COUNT("sim.events_processed", 1);
    CDBP_TELEM_HIST("sim.item_size_permille", r.size * 1000.0);

    if (options.chromeTrace) {
      std::ostringstream name;
      name << "item " << r.id;
      options.chromeTrace->addComplete(
          name.str(), "item", r.arrival() * options.traceTimeScale,
          r.duration() * options.traceTimeScale, kTracePid,
          static_cast<int>(target),
          {{"size", r.size},
           {"category", static_cast<double>(bins.info(target).category)},
           {"bin_level_after", bins.info(target).level}});
      options.chromeTrace->addCounter("open_bins",
                                      r.arrival() * options.traceTimeScale,
                                      kTracePid,
                                      static_cast<double>(bins.openCount()));
    }
  }
  // Departure records after the last arrival cannot influence any
  // placement; they are drained only when a timeline artifact wants the
  // open-bin counter series to close at zero.
  if (options.chromeTrace) {
    for (; cursor < departures.size(); ++cursor) {
      processDeparture(departures[cursor]);
    }
    for (std::size_t b = 0; b < bins.binsOpened(); ++b) {
      const BinManager::BinInfo& info = bins.info(static_cast<BinId>(b));
      std::ostringstream name;
      name << "bin " << info.id << " (cat " << info.category << ")";
      options.chromeTrace->setThreadName(kTracePid, static_cast<int>(info.id),
                                         name.str());
    }
  }

  SimResult result;
  result.packing = Packing(instance, std::move(binOf));
  result.totalUsage = result.packing.totalUsage();
  result.binsOpened = bins.binsOpened();
  result.maxOpenBins = maxOpen;
  result.categoriesUsed = bins.categoriesOpened();
  return result;
}

}  // namespace cdbp
