#include "sim/simulator.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "sim/sharded.hpp"
#include "sim/stream_internals.hpp"
#include "telemetry/telemetry.hpp"

namespace cdbp {

namespace {

using stream_internal::announceItem;
using stream_internal::commitPlacement;
using stream_internal::Committed;

// The timeline is replayed in (time, kind, item) order: departures before
// arrivals at the same instant (half-open intervals: an item leaving at t
// does not overlap one arriving at t), simultaneous departures in item-id
// order — exactly the (time, id) pop order of the stream engine's
// departure queue, so bin levels evolve through the identical sequence of
// floating-point updates. Only the n departure records are sorted; the
// arrivals come in (arrival, id) order and the loop merges the two.
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
    if (options.trace != nullptr) {
      throw std::invalid_argument(
          "simulateOnline: the sharded engine does not produce decision "
          "traces; use kIndexed for trace runs");
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

  std::size_t cursor = 0;
  for (std::size_t k = 0; k < items.size(); ++k) {
    const Item& r = inArrivalOrder ? items[k] : instance[arrivalOrder[k]];
    // Batched draining: departures due by this arrival release capacity
    // back to back with no per-item heap traffic. Departures after the
    // last arrival cannot influence any placement and are never drained.
    while (cursor < departures.size() &&
           departures[cursor].time <= r.arrival()) {
      const Departure& d = departures[cursor++];
      bins.removeItem(binOf[d.item], instance[d.item].size);
      CDBP_TELEM_COUNT("sim.events_processed", 1);
    }

    const Committed placed = commitPlacement(
        bins, policy, announceItem(options.announce, r, "SimOptions"));
    // Scan cost of this placement: the probes its view counted.
    CDBP_TELEM_HIST("sim.bins_scanned_per_placement", placed.probes);
    binOf[r.id] = placed.record.bin;
    maxOpen = std::max(maxOpen, bins.openCount());
    if (options.trace) options.trace->record(placed.record);
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
