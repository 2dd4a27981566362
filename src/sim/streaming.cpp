#include "sim/streaming.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/epsilon.hpp"
#include "sim/placement_view.hpp"
#include "sim/sharded.hpp"
#include "sim/stream_internals.hpp"
#include "telemetry/telemetry.hpp"

namespace cdbp {

namespace {

// Shared with the sharded engine (stream_internals.hpp): the (time, id)
// departure heap ordering and the incremental Proposition 3 accumulator
// must be the *same code* in both engines for their doubles to stay
// bitwise identical.
using stream_internal::IncrementalLb3;
using stream_internal::laterDeparture;
using stream_internal::PendingDeparture;

constexpr int kTracePid = 1;

}  // namespace

InstanceArrivalSource::InstanceArrivalSource(const Instance& instance)
    : items_(instance.sortedByArrival()) {}

bool InstanceArrivalSource::next(StreamItem& out) {
  if (pos_ >= items_.size()) return false;
  const Item& r = items_[pos_++];
  out.size = r.size;
  out.arrival = r.arrival();
  out.departure = r.departure();
  return true;
}

// The incremental state simulateStream used to keep in locals, verbatim:
// the refactor moved the loop body into place()/drainUntil()/finish()
// without reordering a single BinManager or accumulator update, which is
// what keeps StreamEngine bit-identical to the pre-refactor simulator.
struct StreamEngine::Impl {
  OnlinePolicy& policy;
  StreamOptions options;
  BinManager bins;
  std::vector<PendingDeparture> pending;  // min-heap via push_heap/pop_heap
  // Per-bin usage, indexed by BinId and filled when the bin closes. Kept
  // so the final sum runs in bin-id order — the exact addition order of
  // Packing::totalUsage() — making the result double bit-identical to the
  // batch path. O(bins opened), the same order BinManager already carries.
  std::vector<Time> usageByBin;
  IncrementalLb3 lb3;
  StreamResult result;
  std::size_t residentPeak = 0;
  Time lastArrival = 0;
  bool sawEvent = false;  // watermark is meaningful only after an event
  ItemId nextId = 0;
  bool done = false;

  Impl(OnlinePolicy& p, const StreamOptions& o)
      : policy(p),
        options(o),
        bins(o.engine == PlacementEngine::kIndexed) {
    if (o.engine == PlacementEngine::kSharded) {
      throw std::invalid_argument(
          "StreamEngine: the sharded engine is not a push-engine backend; "
          "route through simulateStream or ShardedSimulator");
    }
    policy.reset();
    if (options.chromeTrace) {
      options.chromeTrace->setProcessName(kTracePid,
                                          "cdbp simulation: " + policy.name());
    }
  }

  void noteResident() {
    std::size_t bytes = pending.capacity() * sizeof(PendingDeparture) +
                        usageByBin.capacity() * sizeof(Time) +
                        bins.residentBytes();
    if (bytes > residentPeak) {
      residentPeak = bytes;
      CDBP_TELEM_GAUGE_SET("stream.resident_bytes", bytes);
    }
  }

  void popDeparture() {
    std::pop_heap(pending.begin(), pending.end(), laterDeparture);
    PendingDeparture dep = pending.back();
    pending.pop_back();
    if (options.computeLowerBound) lb3.onEvent(dep.time, -dep.size);
    if (bins.removeItem(dep.bin, dep.size)) {
      usageByBin[static_cast<std::size_t>(dep.bin)] =
          dep.time - bins.info(dep.bin).openedAt;
    }
    CDBP_TELEM_COUNT("sim.events_processed", 1);
    CDBP_TELEM_GAUGE_SET("stream.open_items", pending.size());
    if (options.chromeTrace) {
      options.chromeTrace->addCounter("open_bins",
                                      dep.time * options.traceTimeScale,
                                      kTracePid,
                                      static_cast<double>(bins.openCount()));
    }
  }

  void requireLive(const char* what) const {
    if (done) {
      throw std::logic_error(std::string("StreamEngine: ") + what +
                             " after finish()");
    }
  }

  Placement place(const StreamItem& incoming) {
    requireLive("place()");
    if (nextId == std::numeric_limits<ItemId>::max()) {
      throw std::invalid_argument("simulateStream: item id space exhausted");
    }
    // Model validation, mirroring Instance's constructor: a streaming
    // source bypasses that gate, so the same invariants are enforced here.
    if (!std::isfinite(incoming.arrival) || !std::isfinite(incoming.departure)) {
      throw std::invalid_argument("simulateStream: item " +
                                  std::to_string(nextId) +
                                  " has a non-finite time");
    }
    if (!(incoming.departure > incoming.arrival)) {
      throw std::invalid_argument("simulateStream: item " +
                                  std::to_string(nextId) +
                                  " departs at or before its arrival");
    }
    if (!std::isfinite(incoming.size) || !(incoming.size > 0) ||
        lt(kBinCapacity, incoming.size)) {
      throw std::invalid_argument("simulateStream: item " +
                                  std::to_string(nextId) +
                                  " has size outside (0, 1]");
    }
    if (sawEvent && incoming.arrival < lastArrival) {
      throw std::invalid_argument(
          "simulateStream: ArrivalSource must yield nondecreasing arrivals "
          "(item " + std::to_string(nextId) + " arrives at " +
          std::to_string(incoming.arrival) + " after " +
          std::to_string(lastArrival) + ")");
    }

    const Item r(nextId++, incoming.size, incoming.arrival, incoming.departure);
    lastArrival = r.arrival();
    sawEvent = true;
    ++result.items;

    // Exact-time draining: every departure at or before this arrival is
    // processed first (half-open intervals), replicating the batch
    // timeline's departures-before-arrivals order at equal instants.
    while (!pending.empty() && pending.front().time <= r.arrival()) {
      popDeparture();
    }

    Item announced = r;
    if (options.announce) {
      announced = options.announce(r);
      if (announced.id != r.id || announced.size != r.size ||
          announced.arrival() != r.arrival()) {
        throw std::logic_error(
            "StreamOptions::announce may only perturb the departure time");
      }
    }

    if (options.computeLowerBound) lb3.onEvent(r.arrival(), r.size);

    PlacementView view(bins, r.arrival());
    PlacementDecision decision = policy.place(view, announced);
    // Scan cost of this placement: the probes its view counted.
    CDBP_TELEM_HIST("sim.bins_scanned_per_placement", view.probes());
    BinId target = decision.bin;
    if (target == kNewBin) {
      target = bins.openBin(decision.category, r.arrival());
      usageByBin.push_back(0);  // slot == id: one push per openBin
      CDBP_TELEM_COUNT("sim.placements_new_bin", 1);
    } else {
      CDBP_TELEM_COUNT("sim.placements_existing_bin", 1);
      if (!bins.info(target).open) {
        throw std::logic_error(policy.name() + " placed item " +
                               std::to_string(r.id) + " in closed bin " +
                               std::to_string(target));
      }
      // Validation re-check: wouldFit is the uncounted twin of fits(), so
      // sim.fit_checks stays comparable with the batch simulator's.
      if (!bins.wouldFit(target, r.size)) {
        throw std::logic_error(policy.name() + " overfilled bin " +
                               std::to_string(target) + " with item " +
                               std::to_string(r.id));
      }
    }
    bins.addItem(target, r.size);
    pending.push_back({r.departure(), r.id, target, r.size});
    std::push_heap(pending.begin(), pending.end(), laterDeparture);
    result.peakOpenItems = std::max(result.peakOpenItems, pending.size());
    CDBP_TELEM_GAUGE_SET("stream.open_items", pending.size());
    result.maxOpenBins = std::max(result.maxOpenBins, bins.openCount());
    CDBP_TELEM_COUNT("sim.events_processed", 1);
    CDBP_TELEM_HIST("sim.item_size_permille", r.size * 1000.0);

    if (options.onPlacement) {
      options.onPlacement(r.id, target, decision.bin == kNewBin,
                          bins.info(target).category);
    }
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
    noteResident();
    return Placement{r.id, target, decision.bin == kNewBin,
                     bins.info(target).category};
  }

  std::size_t drainUntil(Time time) {
    requireLive("drainUntil()");
    if (!std::isfinite(time)) {
      throw std::invalid_argument("StreamEngine: drainUntil time is not finite");
    }
    if (sawEvent && time < lastArrival) {
      throw std::invalid_argument(
          "StreamEngine: drainUntil(" + std::to_string(time) +
          ") regresses behind the time watermark " +
          std::to_string(lastArrival));
    }
    // Advancing the watermark keeps equivalence with the pure-streaming
    // order: a later arrival below `time` would have been placed BEFORE
    // the departures in (arrival, time] in the batch timeline, so once
    // those departures are drained such an arrival must be rejected —
    // place() does, because lastArrival is now `time`.
    lastArrival = time;
    sawEvent = true;
    std::size_t drained = 0;
    while (!pending.empty() && pending.front().time <= time) {
      popDeparture();
      ++drained;
    }
    return drained;
  }

  StreamResult finish() {
    requireLive("finish()");
    // End of stream: drain every pending departure so all bins close and
    // the usage ledger completes. (The batch simulator may skip its
    // trailing departures; here they are what produces totalUsage.)
    while (!pending.empty()) popDeparture();

    if (options.chromeTrace) {
      for (std::size_t b = 0; b < bins.binsOpened(); ++b) {
        const BinManager::BinInfo& info = bins.info(static_cast<BinId>(b));
        std::ostringstream name;
        name << "bin " << info.id << " (cat " << info.category << ")";
        options.chromeTrace->setThreadName(kTracePid,
                                           static_cast<int>(info.id),
                                           name.str());
      }
    }

    Time totalUsage = 0;
    for (Time usage : usageByBin) totalUsage += usage;
    result.totalUsage = totalUsage;
    result.binsOpened = bins.binsOpened();
    result.categoriesUsed = bins.categoriesOpened();
    if (options.computeLowerBound) result.lb3 = lb3.total();
    result.peakResidentBytes = residentPeak;
    done = true;
    return result;
  }
};

StreamEngine::StreamEngine(OnlinePolicy& policy, const StreamOptions& options)
    : impl_(std::make_unique<Impl>(policy, options)) {}

StreamEngine::~StreamEngine() = default;

StreamEngine::Placement StreamEngine::place(const StreamItem& item) {
  return impl_->place(item);
}

std::size_t StreamEngine::drainUntil(Time time) {
  return impl_->drainUntil(time);
}

StreamResult StreamEngine::finish() { return impl_->finish(); }

bool StreamEngine::finished() const { return impl_->done; }

Time StreamEngine::timeWatermark() const {
  return impl_->sawEvent ? impl_->lastArrival
                         : -std::numeric_limits<Time>::infinity();
}

std::size_t StreamEngine::itemsPlaced() const { return impl_->result.items; }

std::size_t StreamEngine::binsOpened() const { return impl_->bins.binsOpened(); }

std::size_t StreamEngine::openBins() const { return impl_->bins.openCount(); }

std::size_t StreamEngine::indexSlotCapacity() const {
  const BinManager& bins = impl_->bins;
  return bins.indexed() ? bins.index().slotCapacity() : 0;
}

std::size_t StreamEngine::pendingDepartures() const {
  return impl_->pending.size();
}

std::size_t StreamEngine::peakOpenItems() const {
  return impl_->result.peakOpenItems;
}

std::size_t StreamEngine::peakResidentBytes() const {
  return impl_->residentPeak;
}

StreamResult simulateStream(ArrivalSource& source, OnlinePolicy& policy,
                            const StreamOptions& options) {
  if (options.engine == PlacementEngine::kSharded) {
    if (options.chromeTrace != nullptr) {
      throw std::invalid_argument(
          "simulateStream: the sharded engine does not produce chrome "
          "traces; use kIndexed for trace runs");
    }
    if (options.onPlacement) {
      throw std::invalid_argument(
          "simulateStream: the sharded engine does not support onPlacement "
          "(shard-local category ids); capture placements through "
          "simulateSharded's ShardedOptions::capturePlacements");
    }
    ShardedOptions shardedOptions;
    shardedOptions.threads = options.shardedThreads;
    shardedOptions.computeLowerBound = options.computeLowerBound;
    shardedOptions.announce = options.announce;
    ShardedResult sharded = simulateSharded(source, policy, shardedOptions);
    StreamResult result;
    result.items = sharded.items;
    result.totalUsage = sharded.totalUsage;
    result.binsOpened = sharded.binsOpened;
    result.maxOpenBins = sharded.maxOpenBins;
    result.categoriesUsed = sharded.categoriesUsed;
    result.lb3 = sharded.lb3;
    result.peakOpenItems = sharded.peakOpenItems;
    result.peakResidentBytes = 0;
    return result;
  }

  StreamEngine engine(policy, options);
  StreamItem incoming;
  while (source.next(incoming)) engine.place(incoming);
  return engine.finish();
}

}  // namespace cdbp
