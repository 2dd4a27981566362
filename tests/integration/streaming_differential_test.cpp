// Differential pin of the bounded-memory streaming simulator: for every
// registered policy spec, both placement engines, and workloads from all
// three sources (random generator, adversarial construction, trace-file
// round trip), simulateStream must be BIT-IDENTICAL to simulateOnline —
// same bin for every item, same totalUsage double, same sim.fit_checks
// count. The stream replays the batch timeline's exact event order
// (DESIGN.md §11), so this is an equality test, not an approximation test.
//
// Batch instances are canonicalized via Instance(inst.sortedByArrival())
// first: the stream assigns dense ids in yield order, and the equivalence
// contract is stated for arrival-ordered, densely numbered inputs.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "online/policy_factory.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "sim/streaming.hpp"
#include "sim/trace.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "workload/adversarial.hpp"
#include "workload/generators.hpp"
#include "workload/trace_io.hpp"

namespace cdbp {
namespace {

const std::vector<std::string>& allSpecs() {
  static const std::vector<std::string> specs = {
      "ff",     "bf",    "wf",          "nf",      "rf(seed=7)",
      "hybrid-ff", "cdt-ff", "cd-ff",   "combined-ff", "min-ext",
      "dep-bf"};
  return specs;
}

std::uint64_t fitChecks() {
  return telemetry::Registry::global().snapshot().counter("sim.fit_checks");
}

struct BatchRun {
  SimResult sim;
  std::uint64_t fitChecks = 0;
};

BatchRun runBatch(const Instance& inst, const std::string& spec,
                  const PolicyContext& context, PlacementEngine engine) {
  PolicyPtr policy = makePolicy(spec, context);
  SimOptions options;
  options.engine = engine;
  BatchRun run;
  std::uint64_t before = fitChecks();
  run.sim = simulateOnline(inst, *policy, options);
  run.fitChecks = fitChecks() - before;
  return run;
}

struct StreamRun {
  StreamResult result;
  std::vector<BinId> bins;  // bins[i] = bin of stream item i
  std::uint64_t fitChecks = 0;
};

StreamRun runStream(ArrivalSource& source, const std::string& spec,
                    const PolicyContext& context, PlacementEngine engine) {
  PolicyPtr policy = makePolicy(spec, context);
  StreamOptions options;
  options.engine = engine;
  options.computeLowerBound = false;  // covered by sim/streaming_test
  StreamRun run;
  options.onPlacement = [&run](ItemId /*id*/, BinId bin, bool /*newBin*/,
                               int /*category*/) { run.bins.push_back(bin); };
  std::uint64_t before = fitChecks();
  run.result = simulateStream(source, *policy, options);
  run.fitChecks = fitChecks() - before;
  return run;
}

void expectEqualRuns(const BatchRun& batch, const StreamRun& stream,
                     const Instance& canonical) {
  // Exact equality on every aggregate: the stream must take the same
  // decisions, not merely equally good ones.
  EXPECT_EQ(stream.result.items, canonical.size());
  EXPECT_EQ(stream.result.totalUsage, batch.sim.totalUsage);
  EXPECT_EQ(stream.result.binsOpened, batch.sim.binsOpened);
  EXPECT_EQ(stream.result.maxOpenBins, batch.sim.maxOpenBins);
  EXPECT_EQ(stream.result.categoriesUsed, batch.sim.categoriesUsed);
  ASSERT_EQ(stream.bins.size(), canonical.size());
  for (std::size_t i = 0; i < stream.bins.size(); ++i) {
    ASSERT_EQ(stream.bins[i], batch.sim.packing.binOf(static_cast<ItemId>(i)))
        << "item " << i;
  }
  if (telemetry::kEnabled) {
    // Same placement queries against the same bin states: the policies'
    // counted fit checks agree exactly.
    EXPECT_EQ(stream.fitChecks, batch.fitChecks);
  }
}

/// Runs every spec x both engines over `inst`, through all three stream
/// sources for trace-capable instances: the in-memory adapter plus a CSV
/// and a JSONL round trip.
void expectStreamEquivalence(const Instance& inst, const std::string& label,
                             bool includeTraceFiles) {
  // Canonicalize: dense ids in (arrival, id) order, so batch item ids
  // coincide with the stream's yield-order numbering.
  Instance canonical(inst.sortedByArrival());
  PolicyContext context = PolicyContext::forInstance(canonical);

  for (PlacementEngine engine :
       {PlacementEngine::kIndexed, PlacementEngine::kLinearScan}) {
    const char* engineName =
        engine == PlacementEngine::kIndexed ? "indexed" : "linear";
    for (const std::string& spec : allSpecs()) {
      SCOPED_TRACE(label + " / " + spec + " / " + engineName);
      BatchRun batch = runBatch(canonical, spec, context, engine);

      InstanceArrivalSource memorySource(canonical);
      StreamRun fromMemory = runStream(memorySource, spec, context, engine);
      expectEqualRuns(batch, fromMemory, canonical);

      if (!includeTraceFiles) continue;
      for (TraceFormat format : {TraceFormat::kCsv, TraceFormat::kJsonl}) {
        std::stringstream buffer;
        writeTrace(canonical, buffer, format);
        TraceArrivalSource fileSource(buffer, format,
                                      traceFormatName(format));
        StreamRun fromFile = runStream(fileSource, spec, context, engine);
        SCOPED_TRACE("via " + traceFormatName(format));
        expectEqualRuns(batch, fromFile, canonical);
      }
    }
  }
}

TEST(StreamingDifferential, AllPoliciesOnRandomWorkloads) {
  for (double mu : {1.0, 8.0, 64.0}) {
    for (std::uint64_t seed : {1u, 2u}) {
      WorkloadSpec spec;
      spec.numItems = 120;
      spec.mu = mu;
      Instance inst = generateWorkload(spec, seed);
      // Trace-file sources on one cell per mu keeps the suite fast while
      // still crossing every (spec, engine) with every source kind.
      expectStreamEquivalence(inst,
                              "mu=" + std::to_string(mu) +
                                  " seed=" + std::to_string(seed),
                              seed == 1u);
    }
  }
}

TEST(StreamingDifferential, ManyOpenBinsStress) {
  // Large live sets: the departure heap actually interleaves with
  // arrivals instead of draining one by one.
  WorkloadSpec spec;
  spec.numItems = 400;
  spec.mu = 16.0;
  spec.arrivalRate = 64.0;
  Instance inst = generateWorkload(spec, 13);
  expectStreamEquivalence(inst, "many-open", false);
}

TEST(StreamingDifferential, AdversarialSliverTrap) {
  // Deterministic fragmentation construction with exact-epsilon levels and
  // simultaneous departures — the case that breaks any drain order other
  // than the batch timeline's (time, id) key.
  Instance inst = firstFitSliverTrap(12, 8.0);
  expectStreamEquivalence(inst, "sliver-trap", true);
}

TEST(StreamingDifferential, SimultaneousEventsPinDrainOrder) {
  // Hand-built collisions: several items share one departure instant, and
  // one item arrives exactly when others depart (half-open intervals: the
  // departing capacity must be free for the arrival).
  Instance inst = InstanceBuilder()
                      .add(0.5, 0.0, 4.0)
                      .add(0.3, 0.0, 4.0)
                      .add(0.2, 1.0, 4.0)
                      .add(0.9, 4.0, 6.0)   // arrives as all three depart
                      .add(0.6, 4.0, 5.0)
                      .add(0.4, 4.5, 6.0)
                      .build();
  expectStreamEquivalence(inst, "simultaneous-events", true);
}

TEST(StreamingDifferential, TraceFileRoundTripPreservesEquivalence) {
  // The full pipeline an exported workload travels: generator ->
  // writeTrace -> TraceArrivalSource -> simulateStream, against batch on
  // the in-memory original. Small-size workload packs dozens of items per
  // bin, stressing long equal-level runs through the file path too.
  WorkloadSpec spec;
  spec.numItems = 300;
  spec.sizes = SizeDist::kSmallOnly;
  spec.minSize = 0.02;
  spec.arrivalRate = 24.0;
  spec.mu = 8.0;
  Instance inst = generateWorkload(spec, 5);
  expectStreamEquivalence(inst, "small-sizes", true);
}

// The records StreamEngine::place() returns are the batch simulator's
// DecisionTrace records, field for field: both come from the one commit
// kernel. openBins and binLevelBefore were never produced by the stream
// engine before, so this is their only pin; doubles compare bitwise.
void expectStreamRecordsMatchBatchTrace(const Instance& inst,
                                        const std::string& label) {
  Instance canonical(inst.sortedByArrival());
  PolicyContext context = PolicyContext::forInstance(canonical);
  for (PlacementEngine engine :
       {PlacementEngine::kIndexed, PlacementEngine::kLinearScan}) {
    for (const std::string& spec : allSpecs()) {
      SCOPED_TRACE(label + " / " + spec + " / " +
                   (engine == PlacementEngine::kIndexed ? "indexed"
                                                        : "linear"));
      DecisionTrace trace;
      SimOptions batchOptions;
      batchOptions.engine = engine;
      batchOptions.trace = &trace;
      PolicyPtr batchPolicy = makePolicy(spec, context);
      simulateOnline(canonical, *batchPolicy, batchOptions);
      ASSERT_EQ(trace.size(), canonical.size());

      StreamOptions streamOptions;
      streamOptions.engine = engine;
      PolicyPtr streamPolicy = makePolicy(spec, context);
      StreamEngine stream(*streamPolicy, streamOptions);
      for (std::size_t i = 0; i < canonical.size(); ++i) {
        const Item& r = canonical[static_cast<ItemId>(i)];
        const PlacementRecord got =
            stream.place(StreamItem{r.size, r.arrival(), r.departure()});
        const PlacementRecord& want = trace.records()[i];
        ASSERT_EQ(got.item, want.item) << "decision " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.time),
                  std::bit_cast<std::uint64_t>(want.time))
            << "item " << i;
        EXPECT_EQ(got.bin, want.bin) << "item " << i;
        EXPECT_EQ(got.openedNewBin, want.openedNewBin) << "item " << i;
        EXPECT_EQ(got.category, want.category) << "item " << i;
        EXPECT_EQ(got.openBins, want.openBins) << "item " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.binLevelBefore),
                  std::bit_cast<std::uint64_t>(want.binLevelBefore))
            << "item " << i;
      }
      stream.finish();
    }
  }
}

TEST(StreamingDifferential, PlacementRecordsMatchBatchDecisionTrace) {
  for (double mu : {1.0, 16.0}) {
    WorkloadSpec spec;
    spec.numItems = 300;
    spec.mu = mu;
    spec.arrivalRate = 32.0;
    expectStreamRecordsMatchBatchTrace(generateWorkload(spec, 3),
                                       "mu=" + std::to_string(mu));
  }
  expectStreamRecordsMatchBatchTrace(firstFitSliverTrap(12, 8.0),
                                     "sliver-trap");
}

// Tie-heavy timelines: arrivals and departures on a coarse grid, so many
// items depart at one instant and arrive exactly when others depart; the
// grid starts below zero and some departures are -0.0, which the (time,
// id) order treats as equal to +0.0. The batch loop, the stream engine
// and the sharded engine (1 and 3 workers) must agree bit for bit on
// every placement and on totalUsage, and the stream and sharded engines
// on lb3 and peakOpenItems — all three drain departures in (time, id)
// order, the two incremental ones from the same departure queue.
Instance tieHeavyInstance(std::uint64_t seed) {
  Rng rng(seed);
  InstanceBuilder builder;
  for (int i = 0; i < 600; ++i) {
    const Time arrival =
        -16.0 + 0.25 * static_cast<double>(rng.uniformInt(0, 96));
    Time departure =
        arrival + 0.5 * static_cast<double>(rng.uniformInt(1, 10));
    if (arrival < 0 && rng.chance(0.15)) departure = -0.0;
    builder.add(0.05 * static_cast<double>(rng.uniformInt(1, 12)), arrival,
                departure);
  }
  return builder.build();
}

void expectTieHeavyAgreement(const Instance& inst, const std::string& spec) {
  Instance canonical(inst.sortedByArrival());
  PolicyContext context = PolicyContext::forInstance(canonical);

  PolicyPtr batchPolicy = makePolicy(spec, context);
  const SimResult batch = simulateOnline(canonical, *batchPolicy);

  PolicyPtr streamPolicy = makePolicy(spec, context);
  StreamOptions streamOptions;
  streamOptions.computeLowerBound = true;
  std::vector<BinId> streamBins;
  streamOptions.onPlacement = [&streamBins](ItemId, BinId bin, bool, int) {
    streamBins.push_back(bin);
  };
  InstanceArrivalSource source(canonical);
  const StreamResult stream =
      simulateStream(source, *streamPolicy, streamOptions);

  EXPECT_EQ(std::bit_cast<std::uint64_t>(stream.totalUsage),
            std::bit_cast<std::uint64_t>(batch.totalUsage));
  EXPECT_EQ(stream.binsOpened, batch.binsOpened);
  EXPECT_EQ(stream.maxOpenBins, batch.maxOpenBins);
  ASSERT_EQ(streamBins.size(), canonical.size());
  for (std::size_t i = 0; i < canonical.size(); ++i) {
    ASSERT_EQ(streamBins[i], batch.packing.binOf(static_cast<ItemId>(i)))
        << "stream, item " << i;
  }

  for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("sharded t" + std::to_string(threads));
    PolicyPtr shardedPolicy = makePolicy(spec, context);
    ShardedOptions options;
    options.threads = threads;
    options.epochArrivals = 16;  // many epoch handovers inside tie runs
    options.computeLowerBound = true;
    options.capturePlacements = true;
    ShardedSimulator sim(*shardedPolicy, options);
    for (const Item& r : canonical.items()) sim.feed(r);
    const ShardedResult sharded = sim.finish();

    EXPECT_EQ(std::bit_cast<std::uint64_t>(sharded.totalUsage),
              std::bit_cast<std::uint64_t>(batch.totalUsage));
    EXPECT_EQ(sharded.binsOpened, batch.binsOpened);
    EXPECT_EQ(sharded.maxOpenBins, batch.maxOpenBins);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sharded.lb3),
              std::bit_cast<std::uint64_t>(stream.lb3));
    EXPECT_EQ(sharded.peakOpenItems, stream.peakOpenItems);
    ASSERT_EQ(sharded.binOf.size(), canonical.size());
    for (std::size_t i = 0; i < canonical.size(); ++i) {
      ASSERT_EQ(sharded.binOf[i], batch.packing.binOf(static_cast<ItemId>(i)))
          << "item " << i;
    }
  }
}

TEST(StreamingDifferential, TieHeavyGridAgreesAcrossEngines) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Instance inst = tieHeavyInstance(seed);
    for (const std::string spec : {"cdt-ff", "cd-ff"}) {
      SCOPED_TRACE(spec + " / seed " + std::to_string(seed));
      expectTieHeavyAgreement(inst, spec);
    }
  }
}

}  // namespace
}  // namespace cdbp
