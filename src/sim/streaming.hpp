// Bounded-memory streaming simulator.
//
// simulateOnline materializes the whole Instance plus a flat 2n-event
// timeline before the first placement — O(n) memory by construction.
// simulateStream consumes arrivals incrementally from an ArrivalSource and
// keeps only the live state: the open-bin set, a queue of pending
// departures (one entry per arrived-but-not-departed item), and O(1)
// accumulators. Resident memory is O(open bins + pending departures +
// bins ever opened), never O(total items) — the term that caps batch
// replay at RAM. (The per-opened-bin term is inherent to BinManager's
// BinInfo bookkeeping and is bytes per bin, not per item.)
//
// Equivalence contract (DESIGN.md §11, enforced by
// tests/integration/streaming_differential_test.cpp): for any arrival-
// sorted source, simulateStream is BIT-IDENTICAL to simulateOnline on the
// same items — same bins for every item, same totalUsage double, same
// sim.fit_checks count. This holds because the stream replays the batch
// timeline order exactly: departures with time <= the incoming arrival
// drain first (in (time, id) order — the batch sort key), so every bin
// level evolves through the same sequence of floating-point updates and
// every policy query sees the same state.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/instance.hpp"
#include "core/types.hpp"
#include "online/policy.hpp"
#include "sim/trace.hpp"
#include "telemetry/chrome_trace.hpp"

namespace cdbp {

/// One arriving job as a source yields it. Sources carry no ids:
/// simulateStream assigns dense ids in yield order, matching the dense
/// (arrival, id) numbering a trace-file round trip produces.
struct StreamItem {
  Size size = 0;
  Time arrival = 0;
  Time departure = 0;
};

/// Pull-based arrival feed. Implementations must yield items in
/// nondecreasing arrival order (simulateStream validates and throws
/// std::invalid_argument on a violation) and may be single-pass.
class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;

  /// Fills `out` with the next item; returns false at end of stream.
  virtual bool next(StreamItem& out) = 0;
};

/// Adapter streaming an in-memory Instance in (arrival, id) order — the
/// oracle-side source of the streaming ≡ batch differential battery. It
/// holds a sorted copy of the items, so it deliberately does NOT have the
/// bounded-memory property; file-backed sources (TraceArrivalSource in
/// workload/trace_io.hpp) do.
class InstanceArrivalSource final : public ArrivalSource {
 public:
  explicit InstanceArrivalSource(const Instance& instance);

  bool next(StreamItem& out) override;

  /// Rewinds to the first item (the instance copy is reusable).
  void reset() { pos_ = 0; }

 private:
  std::vector<Item> items_;  // (arrival, id) order
  std::size_t pos_ = 0;
};

struct StreamOptions {
  /// Placement engine, as in SimOptions. Both engines remain bit-identical
  /// to their batch counterparts.
  PlacementEngine engine = PlacementEngine::kIndexed;

  /// Same contract as SimOptions::announce: the policy sees the perturbed
  /// departure, the system evolves with the true one; only the departure
  /// may change.
  std::function<Item(const Item&)> announce;

  /// Per-placement callback, invoked after each item is committed:
  /// (item id, bin, opened-new-bin, bin category). Tests capture full
  /// assignments through this without the simulator storing O(n) state.
  std::function<void(ItemId, BinId, bool, int)> onPlacement;

  /// Maintain the incremental Proposition 3 lower bound (ceil-integral of
  /// the running total-size profile) in StreamResult::lb3. O(1) per event;
  /// disable to shave the accumulator work off pure throughput runs.
  bool computeLowerBound = true;

  /// When set, the run is recorded as a chrome://tracing timeline: one
  /// complete event per item on its bin's row plus an open-bin counter
  /// series (DESIGN.md §8.2). The only timeline emitter of the engines;
  /// always available, independent of the CDBP_TELEMETRY toggle — an
  /// explicitly requested artifact, not ambient instrumentation.
  telemetry::ChromeTrace* chromeTrace = nullptr;

  /// Simulated-time-unit -> trace-microsecond scale (trace timestamps are
  /// microseconds; the default renders 1 time unit as 1 second).
  double traceTimeScale = 1e6;

  /// Worker threads for engine == kSharded (0 picks the hardware
  /// concurrency); ignored by the other engines. The sharded engine
  /// rejects `chromeTrace` (single-timeline artifact) and `onPlacement`
  /// (per-placement callbacks would expose shard-local category ids;
  /// capture placements through simulateSharded's ShardedOptions instead).
  std::size_t shardedThreads = 0;
};

struct StreamResult {
  /// Items consumed from the source.
  std::size_t items = 0;
  /// Sum of per-bin usage (close - open), accumulated in bin-id order —
  /// bit-identical to the batch Packing::totalUsage() double.
  Time totalUsage = 0;
  std::size_t binsOpened = 0;
  std::size_t maxOpenBins = 0;
  std::size_t categoriesUsed = 0;
  /// Incremental Proposition 3 lower bound (0 when disabled). Agrees with
  /// lowerBounds().ceilIntegral to floating-point accumulation order, not
  /// bitwise (DESIGN.md §11.4).
  double lb3 = 0;
  /// High-water mark of simultaneously pending departures — the "open
  /// items" the stream had to remember at once. Bounded-memory runs show
  /// peakOpenItems << items.
  std::size_t peakOpenItems = 0;
  /// Estimated peak bytes of simulator-owned state (departure queue
  /// blocks + usage ledger + bin metadata + placement index, via
  /// BinManager::residentBytes). An estimate from container capacities,
  /// not an allocator measurement. The sharded engine reports 0 here (its
  /// state is spread across workers), and reports peakOpenItems only when
  /// computeLowerBound is on (the feed counts it while merging the
  /// shards' departure logs into the bound).
  std::size_t peakResidentBytes = 0;
};

/// The incremental heart of the streaming simulator, exposed so callers
/// that do not own a pull loop — the placement daemon's per-tenant
/// sessions (serve/server.hpp) — can feed items one at a time. Every
/// code path that streams goes through this class: simulateStream is a
/// thin loop over place(), so an engine fed the same items in the same
/// order is bit-identical to simulateStream (and hence to the batch
/// simulator) by construction, not by parallel maintenance.
///
/// Lifecycle: construct (resets the policy), then any sequence of
/// place() / drainUntil() with nondecreasing times, then finish() once.
/// After finish() the engine is spent; further calls throw
/// std::logic_error.
///
/// Not thread-safe: one engine belongs to one thread (the daemon gives
/// each tenant session its own engine and serializes on the event loop).
class StreamEngine {
 public:
  /// One committed placement: the record the commit kernel returns, the
  /// same one SimOptions::trace collects from the batch simulator.
  using Placement = PlacementRecord;

  /// `policy` must outlive the engine; it is reset() here.
  explicit StreamEngine(OnlinePolicy& policy, const StreamOptions& options = {});
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Validates `item` (finite times, departure > arrival, size in (0, 1],
  /// arrival >= timeWatermark()), drains departures due at or before the
  /// arrival, places through the policy, and commits. Throws
  /// std::invalid_argument on model-invalid or time-regressing items and
  /// std::logic_error on invalid policy decisions.
  Placement place(const StreamItem& item);

  /// Advances the simulation clock to `time`, processing every pending
  /// departure due at or before it — the explicit-time form of the drain
  /// place() performs implicitly. Subsequent items must arrive at or
  /// after `time`. Returns the number of departures processed; throws
  /// std::invalid_argument when `time` is non-finite or regresses behind
  /// timeWatermark().
  std::size_t drainUntil(Time time);

  /// Drains all remaining departures, closes every bin and returns the
  /// final StreamResult (bit-identical to simulateStream on the same item
  /// sequence). The engine is finished afterwards.
  StreamResult finish();

  bool finished() const;

  /// Latest time the engine has committed to (last arrival or explicit
  /// drainUntil), or -infinity before the first event.
  Time timeWatermark() const;

  // Live observers, valid before finish() — the daemon's STATS frame.
  std::size_t itemsPlaced() const;
  std::size_t binsOpened() const;
  std::size_t openBins() const;
  std::size_t pendingDepartures() const;
  std::size_t peakOpenItems() const;
  std::size_t peakResidentBytes() const;
  /// Leaf slots of the placement index's global tree (0 for the linear
  /// engine): bounded by the open bins, never by the bins ever opened. It
  /// reads 0 for category policies (cdt-ff, cd-ff, ...) once a second
  /// category has opened: they only query category scopes, and the index
  /// keeps the global tree only while something reads it.
  std::size_t indexSlotCapacity() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Streams `source` through `policy` (reset() first). Throws
/// std::logic_error on invalid policy decisions (closed/overfilled bin) and
/// std::invalid_argument on out-of-order or model-invalid source items.
StreamResult simulateStream(ArrivalSource& source, OnlinePolicy& policy,
                            const StreamOptions& options = {});

}  // namespace cdbp
