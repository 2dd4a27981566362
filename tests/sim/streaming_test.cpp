#include "sim/streaming.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/lower_bounds.hpp"
#include "online/policy_factory.hpp"
#include "sim/simulator.hpp"
#include "workload/generators.hpp"

namespace cdbp {
namespace {

/// Source yielding a fixed list verbatim — including invalid entries, to
/// exercise simulateStream's own validation (a streaming source bypasses
/// Instance's constructor gate).
class RawSource final : public ArrivalSource {
 public:
  explicit RawSource(std::vector<StreamItem> items)
      : items_(std::move(items)) {}

  bool next(StreamItem& out) override {
    if (pos_ >= items_.size()) return false;
    out = items_[pos_++];
    return true;
  }

 private:
  std::vector<StreamItem> items_;
  std::size_t pos_ = 0;
};

TEST(SimulateStream, EmptyStream) {
  RawSource source({});
  PolicyPtr policy = makePolicy("ff");
  StreamResult result = simulateStream(source, *policy);
  EXPECT_EQ(result.items, 0u);
  EXPECT_EQ(result.totalUsage, 0.0);
  EXPECT_EQ(result.binsOpened, 0u);
  EXPECT_EQ(result.peakOpenItems, 0u);
  EXPECT_EQ(result.lb3, 0.0);
}

TEST(SimulateStream, TinyHandTrace) {
  // Two overlapping halves share a bin under FF; the third arrives after
  // both depart, so the bin has closed and a new one opens.
  RawSource source({{0.5, 0.0, 4.0}, {0.5, 1.0, 3.0}, {0.5, 5.0, 6.0}});
  PolicyPtr policy = makePolicy("ff");
  StreamResult result = simulateStream(source, *policy);
  EXPECT_EQ(result.items, 3u);
  EXPECT_EQ(result.binsOpened, 2u);
  EXPECT_EQ(result.maxOpenBins, 1u);
  EXPECT_EQ(result.totalUsage, 4.0 + 1.0);
  EXPECT_EQ(result.peakOpenItems, 2u);
}

TEST(SimulateStream, OutOfOrderSourceThrows) {
  RawSource source({{0.5, 5.0, 8.0}, {0.5, 3.0, 9.0}});
  PolicyPtr policy = makePolicy("ff");
  EXPECT_THROW(simulateStream(source, *policy), std::invalid_argument);
}

TEST(SimulateStream, InvalidItemsThrow) {
  PolicyPtr policy = makePolicy("ff");
  {
    RawSource source({{0.0, 0.0, 4.0}});  // size 0
    EXPECT_THROW(simulateStream(source, *policy), std::invalid_argument);
  }
  {
    RawSource source({{1.5, 0.0, 4.0}});  // size > capacity
    EXPECT_THROW(simulateStream(source, *policy), std::invalid_argument);
  }
  {
    RawSource source({{0.5, 4.0, 4.0}});  // empty interval
    EXPECT_THROW(simulateStream(source, *policy), std::invalid_argument);
  }
  {
    RawSource source(
        {{0.5, 0.0, std::numeric_limits<double>::infinity()}});
    EXPECT_THROW(simulateStream(source, *policy), std::invalid_argument);
  }
}

TEST(SimulateStream, AnnounceMayOnlyPerturbDeparture) {
  WorkloadSpec spec;
  spec.numItems = 50;
  Instance inst = generateWorkload(spec, 7);

  // Legal: shifting only the departure.
  {
    InstanceArrivalSource source(inst);
    PolicyPtr policy = makePolicy("bf");
    StreamOptions options;
    options.announce = [](const Item& r) {
      return Item(r.id, r.size, r.arrival(), r.departure() + 0.25);
    };
    StreamResult streamed = simulateStream(source, *policy, options);

    // The same perturbation through the batch simulator agrees exactly.
    PolicyPtr batchPolicy = makePolicy("bf");
    SimOptions batchOptions;
    batchOptions.announce = options.announce;
    SimResult batch =
        simulateOnline(Instance(inst.sortedByArrival()), *batchPolicy,
                       batchOptions);
    EXPECT_EQ(streamed.totalUsage, batch.totalUsage);
    EXPECT_EQ(streamed.binsOpened, batch.binsOpened);
  }

  // Illegal: touching the size.
  {
    InstanceArrivalSource source(inst);
    PolicyPtr policy = makePolicy("bf");
    StreamOptions options;
    options.announce = [](const Item& r) {
      return Item(r.id, r.size * 0.5, r.arrival(), r.departure());
    };
    EXPECT_THROW(simulateStream(source, *policy, options), std::logic_error);
  }
}

TEST(SimulateStream, InstanceArrivalSourceReset) {
  WorkloadSpec spec;
  spec.numItems = 80;
  Instance inst = generateWorkload(spec, 21);
  InstanceArrivalSource source(inst);
  PolicyPtr policy = makePolicy("ff");
  StreamResult first = simulateStream(source, *policy);
  ASSERT_EQ(first.items, inst.size());

  // Exhausted without reset: nothing left.
  StreamResult empty = simulateStream(source, *policy);
  EXPECT_EQ(empty.items, 0u);

  source.reset();
  StreamResult second = simulateStream(source, *policy);
  EXPECT_EQ(second.items, first.items);
  EXPECT_EQ(second.totalUsage, first.totalUsage);
  EXPECT_EQ(second.binsOpened, first.binsOpened);
}

TEST(SimulateStream, OnPlacementSeesEveryItem) {
  WorkloadSpec spec;
  spec.numItems = 100;
  Instance inst = generateWorkload(spec, 5);
  InstanceArrivalSource source(inst);
  PolicyPtr policy = makePolicy("ff");
  StreamOptions options;
  std::vector<BinId> bins;
  options.onPlacement = [&](ItemId id, BinId bin, bool /*newBin*/,
                            int /*category*/) {
    EXPECT_EQ(id, static_cast<ItemId>(bins.size()));
    bins.push_back(bin);
  };
  StreamResult result = simulateStream(source, *policy, options);
  ASSERT_EQ(bins.size(), result.items);

  SimResult batch =
      simulateOnline(Instance(inst.sortedByArrival()), *policy);
  for (std::size_t i = 0; i < bins.size(); ++i) {
    EXPECT_EQ(bins[i], batch.packing.binOf(static_cast<ItemId>(i)))
        << "item " << i;
  }
}

TEST(SimulateStream, IncrementalLowerBoundTracksBatchBound) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    WorkloadSpec spec;
    spec.numItems = 300;
    spec.mu = 16.0;
    Instance inst = generateWorkload(spec, seed);
    InstanceArrivalSource source(inst);
    PolicyPtr policy = makePolicy("ff");
    StreamResult result = simulateStream(source, *policy);
    double batchLb3 = lowerBounds(inst).ceilIntegral;
    // Same epsilon-rounded integral, different accumulation order: agree
    // to floating-point tolerance, not bitwise (DESIGN.md §11.4).
    EXPECT_NEAR(result.lb3, batchLb3, 1e-9 * std::max(1.0, batchLb3))
        << "seed " << seed;
  }
}

TEST(SimulateStream, BoundedMemoryOnLongStream) {
  // 50k items at the default arrival rate: the number of simultaneously
  // live jobs stays near rate * mean-duration (a few dozen), so peak open
  // items must sit orders of magnitude below the item count.
  WorkloadSpec spec;
  spec.numItems = 50000;
  spec.mu = 16.0;
  Instance inst = generateWorkload(spec, 17);
  InstanceArrivalSource source(inst);
  PolicyPtr policy = makePolicy("ff");
  StreamResult result = simulateStream(source, *policy);
  ASSERT_EQ(result.items, 50000u);
  EXPECT_LT(result.peakOpenItems * 20, result.items)
      << "peak open items " << result.peakOpenItems
      << " is not << total items";
  EXPECT_GT(result.peakOpenItems, 0u);
  EXPECT_GT(result.peakResidentBytes, 0u);
}

TEST(SimulateStream, PeakResidentBytesCountThePlacementIndex) {
  // Same placements, same bin table; only the indexed engine holds the
  // placement index, and the resident figure must show it.
  WorkloadSpec spec;
  spec.numItems = 5000;
  Instance inst = generateWorkload(spec, 5);
  std::size_t peak[2] = {0, 0};
  int k = 0;
  for (PlacementEngine engine :
       {PlacementEngine::kIndexed, PlacementEngine::kLinearScan}) {
    InstanceArrivalSource source(inst);
    PolicyPtr policy = makePolicy("ff");
    StreamOptions options;
    options.engine = engine;
    peak[k++] = simulateStream(source, *policy, options).peakResidentBytes;
  }
  EXPECT_GT(peak[0], peak[1]);
}

TEST(SimulateStream, ChromeTraceArtifact) {
  WorkloadSpec spec;
  spec.numItems = 30;
  Instance inst = generateWorkload(spec, 2);
  InstanceArrivalSource source(inst);
  PolicyPtr policy = makePolicy("ff");
  telemetry::ChromeTrace trace;
  StreamOptions options;
  options.chromeTrace = &trace;
  simulateStream(source, *policy, options);
  // One complete event + one counter sample per arrival, plus departures'
  // counter samples and the metadata rows.
  EXPECT_GT(trace.eventCount(), 2 * inst.size());
  std::ostringstream out;
  trace.write(out);
  EXPECT_EQ(out.str().front(), '[');
  EXPECT_NE(out.str().find("open_bins"), std::string::npos);
  EXPECT_NE(out.str().find("cdbp simulation: FirstFit"), std::string::npos);
}

TEST(StreamEngine, IncrementalPlacementsMatchSimulateStream) {
  WorkloadSpec spec;
  spec.numItems = 300;
  spec.mu = 8.0;
  Instance inst(generateWorkload(spec, 9).sortedByArrival());

  PolicyPtr reference = makePolicy("cdt-ff", PolicyContext::forInstance(inst));
  InstanceArrivalSource source(inst);
  std::vector<BinId> expectedBins;
  StreamOptions options;
  options.onPlacement = [&](ItemId, BinId bin, bool, int) {
    expectedBins.push_back(bin);
  };
  StreamResult expected = simulateStream(source, *reference, options);

  PolicyPtr policy = makePolicy("cdt-ff", PolicyContext::forInstance(inst));
  StreamEngine engine(*policy);
  EXPECT_FALSE(engine.finished());
  EXPECT_EQ(engine.timeWatermark(), -std::numeric_limits<Time>::infinity());
  InstanceArrivalSource replay(inst);
  StreamItem item;
  std::size_t i = 0;
  while (replay.next(item)) {
    StreamEngine::Placement placed = engine.place(item);
    ASSERT_LT(i, expectedBins.size());
    EXPECT_EQ(placed.bin, expectedBins[i]) << "item " << i;
    EXPECT_EQ(placed.item, static_cast<ItemId>(i));
    ++i;
  }
  EXPECT_EQ(engine.itemsPlaced(), inst.size());
  StreamResult result = engine.finish();
  EXPECT_TRUE(engine.finished());
  EXPECT_EQ(result.totalUsage, expected.totalUsage);
  EXPECT_EQ(result.binsOpened, expected.binsOpened);
  EXPECT_EQ(result.maxOpenBins, expected.maxOpenBins);
  EXPECT_EQ(result.categoriesUsed, expected.categoriesUsed);
  EXPECT_EQ(result.peakOpenItems, expected.peakOpenItems);
}

TEST(StreamEngine, DrainUntilProcessesDueDepartures) {
  PolicyPtr policy = makePolicy("ff");
  StreamEngine engine(*policy);
  engine.place({0.5, 0.0, 2.0});
  engine.place({0.5, 0.0, 3.0});
  EXPECT_EQ(engine.pendingDepartures(), 2u);
  EXPECT_EQ(engine.openBins(), 1u);

  EXPECT_EQ(engine.drainUntil(1.0), 0u);  // nothing due yet
  EXPECT_EQ(engine.drainUntil(2.0), 1u);  // departures at t <= 2 drain
  EXPECT_EQ(engine.pendingDepartures(), 1u);
  EXPECT_EQ(engine.timeWatermark(), 2.0);

  // The watermark moved: an arrival behind it must be rejected (it would
  // break equivalence with the pure-streaming event order).
  EXPECT_THROW(engine.place({0.25, 1.5, 5.0}), std::invalid_argument);
  // Regressing the clock itself is equally invalid.
  EXPECT_THROW(engine.drainUntil(1.0), std::invalid_argument);

  StreamResult result = engine.finish();
  EXPECT_EQ(result.items, 2u);
  EXPECT_EQ(result.binsOpened, 1u);
  EXPECT_EQ(result.totalUsage, 3.0);
}

TEST(StreamEngine, FinishIsTerminal) {
  PolicyPtr policy = makePolicy("ff");
  StreamEngine engine(*policy);
  engine.place({0.5, 0.0, 1.0});
  engine.finish();
  EXPECT_THROW(engine.place({0.5, 2.0, 3.0}), std::logic_error);
  EXPECT_THROW(engine.drainUntil(4.0), std::logic_error);
  EXPECT_THROW(engine.finish(), std::logic_error);
}

}  // namespace
}  // namespace cdbp
