#include "sim/streaming.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "sim/sharded.hpp"
#include "sim/stream_internals.hpp"
#include "telemetry/telemetry.hpp"

namespace cdbp {

namespace {

// Shared with the other engines (stream_internals.hpp): the commit kernel,
// the item checks, the (time, id) departure queue and the incremental
// Proposition 3 accumulator must be the *same code* in every engine for
// their placements and doubles to stay bitwise identical.
using stream_internal::announceItem;
using stream_internal::commitPlacement;
using stream_internal::Committed;
using stream_internal::DepartureQueue;
using stream_internal::IncrementalLb3;
using stream_internal::PendingDeparture;
using stream_internal::validateItem;

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
  DepartureQueue pending;
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
    std::size_t bytes = pending.residentBytes() +
                        usageByBin.capacity() * sizeof(Time) +
                        bins.residentBytes();
    if (bytes > residentPeak) {
      residentPeak = bytes;
      CDBP_TELEM_GAUGE_SET("stream.resident_bytes", bytes);
    }
  }

  void popDeparture() {
    const PendingDeparture dep = pending.pop();
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
    validateItem("simulateStream", nextId, incoming.size, incoming.arrival,
                 incoming.departure);
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
    while (!pending.empty() && pending.nextTime() <= r.arrival()) {
      popDeparture();
    }

    const Item announced = announceItem(options.announce, r, "StreamOptions");

    if (options.computeLowerBound) lb3.onEvent(r.arrival(), r.size);

    const Committed placed = commitPlacement(bins, policy, announced);
    // Scan cost of this placement: the probes its view counted.
    CDBP_TELEM_HIST("sim.bins_scanned_per_placement", placed.probes);
    const BinId target = placed.record.bin;
    if (placed.record.openedNewBin) usageByBin.push_back(0);  // slot == id
    pending.push({r.departure(), r.id, target, r.size});
    result.peakOpenItems = std::max(result.peakOpenItems, pending.size());
    CDBP_TELEM_GAUGE_SET("stream.open_items", pending.size());
    result.maxOpenBins = std::max(result.maxOpenBins, bins.openCount());

    if (options.onPlacement) {
      options.onPlacement(r.id, target, placed.record.openedNewBin,
                          placed.record.category);
    }
    if (options.chromeTrace) {
      std::ostringstream name;
      name << "item " << r.id;
      options.chromeTrace->addComplete(
          name.str(), "item", r.arrival() * options.traceTimeScale,
          r.duration() * options.traceTimeScale, kTracePid,
          static_cast<int>(target),
          {{"size", r.size},
           {"category", static_cast<double>(placed.record.category)},
           {"bin_level_after", bins.info(target).level}});
      options.chromeTrace->addCounter("open_bins",
                                      r.arrival() * options.traceTimeScale,
                                      kTracePid,
                                      static_cast<double>(bins.openCount()));
    }
    noteResident();
    return placed.record;
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
    while (!pending.empty() && pending.nextTime() <= time) {
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
