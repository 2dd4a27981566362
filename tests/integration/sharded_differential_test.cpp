// Differential pin of the epoch-sharded engine: for every registered
// policy spec, every tested worker count, and workloads from all three
// sources (random generator, adversarial construction, trace-file round
// trip), kSharded must be BIT-IDENTICAL to kIndexed and kLinearScan —
// same bin for every item, same totalUsage double, same aggregate
// statistics, and the same sim.fit_checks delta as the indexed engine
// (shard-local indexed managers answer exactly the queries the single
// pool would). DESIGN.md §14 states the argument; this battery enforces
// it, including across epoch boundaries (small epochArrivals force the
// pipeline to hand over mid-run) and in the single-shard fallback the
// non-partitionable policies take.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "online/policy_factory.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "sim/streaming.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"
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

const std::vector<std::size_t>& workerCounts() {
  static const std::vector<std::size_t> counts = {1, 2, 4};
  return counts;
}

std::uint64_t fitChecks() {
  return telemetry::Registry::global().snapshot().counter("sim.fit_checks");
}

struct BatchRun {
  SimResult sim;
  std::uint64_t fitChecks = 0;
};

BatchRun runBatch(const Instance& inst, const std::string& spec,
                  const PolicyContext& context, PlacementEngine engine,
                  std::size_t shardedThreads = 0) {
  PolicyPtr policy = makePolicy(spec, context);
  SimOptions options;
  options.engine = engine;
  options.shardedThreads = shardedThreads;
  BatchRun run;
  std::uint64_t before = fitChecks();
  run.sim = simulateOnline(inst, *policy, options);
  run.fitChecks = fitChecks() - before;
  return run;
}

void expectSameSim(const BatchRun& oracle, const BatchRun& sharded,
                   const Instance& canonical, bool compareFitChecks) {
  EXPECT_EQ(sharded.sim.totalUsage, oracle.sim.totalUsage);
  EXPECT_EQ(sharded.sim.binsOpened, oracle.sim.binsOpened);
  EXPECT_EQ(sharded.sim.maxOpenBins, oracle.sim.maxOpenBins);
  EXPECT_EQ(sharded.sim.categoriesUsed, oracle.sim.categoriesUsed);
  for (std::size_t i = 0; i < canonical.size(); ++i) {
    ASSERT_EQ(sharded.sim.packing.binOf(static_cast<ItemId>(i)),
              oracle.sim.packing.binOf(static_cast<ItemId>(i)))
        << "item " << i;
  }
  if (telemetry::kEnabled && compareFitChecks) {
    // Shard-local indexed managers field exactly the queries the single
    // indexed pool would — the counted probes agree exactly. (The linear
    // oracle counts per scan step, so only the indexed oracle compares.)
    EXPECT_EQ(sharded.fitChecks, oracle.fitChecks);
  }
}

/// Every spec x every worker count over `inst`, against both oracles.
void expectShardedEquivalence(const Instance& inst, const std::string& label) {
  Instance canonical(inst.sortedByArrival());
  PolicyContext context = PolicyContext::forInstance(canonical);

  for (const std::string& spec : allSpecs()) {
    BatchRun indexed =
        runBatch(canonical, spec, context, PlacementEngine::kIndexed);
    BatchRun linear =
        runBatch(canonical, spec, context, PlacementEngine::kLinearScan);
    for (std::size_t threads : workerCounts()) {
      SCOPED_TRACE(label + " / " + spec + " / t" + std::to_string(threads));
      BatchRun sharded = runBatch(canonical, spec, context,
                                  PlacementEngine::kSharded, threads);
      expectSameSim(indexed, sharded, canonical, /*compareFitChecks=*/true);
      expectSameSim(linear, sharded, canonical, /*compareFitChecks=*/false);
    }
  }
}

TEST(ShardedDifferential, AllPoliciesOnRandomWorkloads) {
  for (double mu : {1.0, 8.0, 64.0}) {
    WorkloadSpec spec;
    spec.numItems = 120;
    spec.mu = mu;
    Instance inst = generateWorkload(spec, 1);
    expectShardedEquivalence(inst, "mu=" + std::to_string(mu));
  }
}

TEST(ShardedDifferential, ManyOpenBinsStress) {
  // Large live sets spread across many categories: partitioned policies
  // actually exercise several shards concurrently.
  WorkloadSpec spec;
  spec.numItems = 400;
  spec.mu = 16.0;
  spec.arrivalRate = 64.0;
  Instance inst = generateWorkload(spec, 13);
  expectShardedEquivalence(inst, "many-open");
}

TEST(ShardedDifferential, AdversarialSliverTrap) {
  // Exact-epsilon levels and simultaneous departures: the construction
  // that catches any drain order other than the batch (time, id) key —
  // here it must also survive the cross-shard merge.
  Instance inst = firstFitSliverTrap(12, 8.0);
  expectShardedEquivalence(inst, "sliver-trap");
}

TEST(ShardedDifferential, SimultaneousEventsPinDrainOrder) {
  Instance inst = InstanceBuilder()
                      .add(0.5, 0.0, 4.0)
                      .add(0.3, 0.0, 4.0)
                      .add(0.2, 1.0, 4.0)
                      .add(0.9, 4.0, 6.0)   // arrives as all three depart
                      .add(0.6, 4.0, 5.0)
                      .add(0.4, 4.5, 6.0)
                      .build();
  expectShardedEquivalence(inst, "simultaneous-events");
}

TEST(ShardedDifferential, EpochBoundariesPreserveIdentity) {
  // Tiny epochs against a 400-item workload: dozens of feed->worker
  // handovers and buffer recycles per shard, with a pipeline bound small
  // enough that the feed thread blocks on buffer reuse.
  WorkloadSpec wspec;
  wspec.numItems = 400;
  wspec.mu = 16.0;
  wspec.arrivalRate = 64.0;
  Instance canonical(generateWorkload(wspec, 21).sortedByArrival());
  PolicyContext context = PolicyContext::forInstance(canonical);

  for (const std::string& spec : allSpecs()) {
    BatchRun indexed =
        runBatch(canonical, spec, context, PlacementEngine::kIndexed);
    for (std::size_t threads : workerCounts()) {
      SCOPED_TRACE(spec + " / t" + std::to_string(threads));
      PolicyPtr policy = makePolicy(spec, context);
      ShardedOptions options;
      options.threads = threads;
      options.epochArrivals = 8;
      options.maxEpochsInFlight = 2;
      options.capturePlacements = true;
      ShardedSimulator sim(*policy, options);
      for (const Item& r : canonical.sortedByArrival()) sim.feed(r);
      ShardedResult result = sim.finish();

      EXPECT_EQ(result.items, canonical.size());
      EXPECT_GE(result.epochs, canonical.size() / options.epochArrivals);
      EXPECT_EQ(result.totalUsage, indexed.sim.totalUsage);
      EXPECT_EQ(result.binsOpened, indexed.sim.binsOpened);
      EXPECT_EQ(result.maxOpenBins, indexed.sim.maxOpenBins);
      EXPECT_EQ(result.categoriesUsed, indexed.sim.categoriesUsed);
      ASSERT_EQ(result.binOf.size(), canonical.size());
      for (std::size_t i = 0; i < canonical.size(); ++i) {
        ASSERT_EQ(result.binOf[i],
                  indexed.sim.packing.binOf(static_cast<ItemId>(i)))
            << "item " << i;
      }
    }
  }
}

TEST(ShardedDifferential, StreamDispatchMatchesIndexedStream) {
  // simulateStream's kSharded route, including the trace-file round trip
  // and the lb3/peakOpenItems accumulators the feed thread maintains.
  WorkloadSpec wspec;
  wspec.numItems = 300;
  wspec.mu = 8.0;
  wspec.arrivalRate = 24.0;
  Instance canonical(generateWorkload(wspec, 5).sortedByArrival());
  PolicyContext context = PolicyContext::forInstance(canonical);

  for (const std::string& spec : {std::string("cdt-ff"), std::string("cd-ff"),
                                  std::string("combined-ff"),
                                  std::string("ff")}) {
    SCOPED_TRACE(spec);
    PolicyPtr indexedPolicy = makePolicy(spec, context);
    StreamOptions indexedOptions;
    InstanceArrivalSource indexedSource(canonical);
    StreamResult indexed =
        simulateStream(indexedSource, *indexedPolicy, indexedOptions);

    for (std::size_t threads : workerCounts()) {
      SCOPED_TRACE(std::string("t") + std::to_string(threads));
      PolicyPtr shardedPolicy = makePolicy(spec, context);
      StreamOptions shardedOptions;
      shardedOptions.engine = PlacementEngine::kSharded;
      shardedOptions.shardedThreads = threads;
      InstanceArrivalSource memorySource(canonical);
      StreamResult fromMemory =
          simulateStream(memorySource, *shardedPolicy, shardedOptions);
      EXPECT_EQ(fromMemory.items, indexed.items);
      EXPECT_EQ(fromMemory.totalUsage, indexed.totalUsage);
      EXPECT_EQ(fromMemory.binsOpened, indexed.binsOpened);
      EXPECT_EQ(fromMemory.maxOpenBins, indexed.maxOpenBins);
      EXPECT_EQ(fromMemory.categoriesUsed, indexed.categoriesUsed);
      // Same accumulator code in the same event order: bitwise equal.
      EXPECT_EQ(fromMemory.lb3, indexed.lb3);
      EXPECT_EQ(fromMemory.peakOpenItems, indexed.peakOpenItems);

      std::stringstream buffer;
      writeTrace(canonical, buffer, TraceFormat::kJsonl);
      TraceArrivalSource fileSource(buffer, TraceFormat::kJsonl, "jsonl");
      PolicyPtr filePolicy = makePolicy(spec, context);
      StreamResult fromFile =
          simulateStream(fileSource, *filePolicy, shardedOptions);
      EXPECT_EQ(fromFile.totalUsage, indexed.totalUsage);
      EXPECT_EQ(fromFile.binsOpened, indexed.binsOpened);
      EXPECT_EQ(fromFile.lb3, indexed.lb3);
    }
  }
}

TEST(ShardedDifferential, PartitionedPoliciesActuallyShard) {
  // A workload with spread departures and durations produces several
  // categories; with 4 workers the classification policies must land on
  // more than one shard — otherwise the whole engine silently degrades to
  // the single-shard fallback and the battery above proves nothing about
  // cross-shard merging.
  WorkloadSpec wspec;
  wspec.numItems = 400;
  wspec.mu = 64.0;
  wspec.arrivalRate = 32.0;
  Instance canonical(generateWorkload(wspec, 3).sortedByArrival());
  PolicyContext context = PolicyContext::forInstance(canonical);

  for (const std::string& spec :
       {std::string("cdt-ff"), std::string("cd-ff"),
        std::string("combined-ff"), std::string("hybrid-ff")}) {
    SCOPED_TRACE(spec);
    PolicyPtr policy = makePolicy(spec, context);
    ShardedOptions options;
    options.threads = 4;
    ShardedSimulator sim(*policy, options);
    for (const Item& r : canonical.sortedByArrival()) sim.feed(r);
    ShardedResult result = sim.finish();
    EXPECT_EQ(result.shards, 4u) << "partitioned policies get all workers";
  }

  PolicyPtr ff = makePolicy("ff", context);
  ShardedOptions options;
  options.threads = 4;
  ShardedSimulator sim(*ff, options);
  for (const Item& r : canonical.sortedByArrival()) sim.feed(r);
  EXPECT_EQ(sim.finish().shards, 1u)
      << "global-scan policies fall back to a single shard";
}

TEST(ShardedDifferential, AnnouncedDeparturesShardByAnnouncement) {
  // The policy (and hence the shard key) must see the announced departure
  // while the system evolves with the true one — same contract as the
  // other engines, so the runs stay bit-identical under announce too.
  WorkloadSpec wspec;
  wspec.numItems = 200;
  wspec.mu = 16.0;
  Instance canonical(generateWorkload(wspec, 9).sortedByArrival());
  PolicyContext context = PolicyContext::forInstance(canonical);
  auto announce = [](const Item& r) {
    return Item(r.id, r.size, r.arrival(),
                r.arrival() + 1.25 * (r.departure() - r.arrival()));
  };

  for (const std::string& spec : {std::string("cdt-ff"), std::string("cd-ff"),
                                  std::string("combined-ff")}) {
    PolicyPtr indexedPolicy = makePolicy(spec, context);
    SimOptions indexedOptions;
    indexedOptions.announce = announce;
    SimResult indexed = simulateOnline(canonical, *indexedPolicy, indexedOptions);

    for (std::size_t threads : workerCounts()) {
      SCOPED_TRACE(spec + " / t" + std::to_string(threads));
      PolicyPtr shardedPolicy = makePolicy(spec, context);
      SimOptions shardedOptions;
      shardedOptions.engine = PlacementEngine::kSharded;
      shardedOptions.shardedThreads = threads;
      shardedOptions.announce = announce;
      SimResult sharded =
          simulateOnline(canonical, *shardedPolicy, shardedOptions);
      EXPECT_EQ(sharded.totalUsage, indexed.totalUsage);
      EXPECT_EQ(sharded.binsOpened, indexed.binsOpened);
      for (std::size_t i = 0; i < canonical.size(); ++i) {
        ASSERT_EQ(sharded.packing.binOf(static_cast<ItemId>(i)),
                  indexed.packing.binOf(static_cast<ItemId>(i)))
            << "item " << i;
      }
    }
  }
}

// --- Contract and rejection coverage ---------------------------------

TEST(ShardedEngine, RejectsTraceArtifacts) {
  Instance inst = InstanceBuilder().add(0.5, 0.0, 1.0).build();
  PolicyContext context = PolicyContext::forInstance(inst);
  PolicyPtr policy = makePolicy("cdt-ff", context);

  SimOptions withTrace;
  withTrace.engine = PlacementEngine::kSharded;
  DecisionTrace trace;
  withTrace.trace = &trace;
  EXPECT_THROW(simulateOnline(inst, *policy, withTrace),
               std::invalid_argument);

  StreamOptions withCallback;
  withCallback.engine = PlacementEngine::kSharded;
  withCallback.onPlacement = [](ItemId, BinId, bool, int) {};
  InstanceArrivalSource source(inst);
  EXPECT_THROW(simulateStream(source, *policy, withCallback),
               std::invalid_argument);
}

TEST(ShardedEngine, StreamEngineRejectsShardedBackend) {
  Instance inst = InstanceBuilder().add(0.5, 0.0, 1.0).build();
  PolicyPtr policy = makePolicy("ff", PolicyContext::forInstance(inst));
  StreamOptions options;
  options.engine = PlacementEngine::kSharded;
  EXPECT_THROW(StreamEngine(*policy, options), std::invalid_argument);
}

PolicyContext tinyContext() {
  Instance inst = InstanceBuilder().add(0.5, 0.0, 1.0).build();
  return PolicyContext::forInstance(inst);
}

TEST(ShardedEngine, ValidatesFeedOrderAndModel) {
  PolicyContext context = tinyContext();
  PolicyPtr policy = makePolicy("cdt-ff", context);
  ShardedSimulator sim(*policy);
  sim.feed(Item(0, 0.5, 1.0, 2.0));
  // Arrival regression and (equal-arrival) id regression both reject.
  EXPECT_THROW(sim.feed(Item(1, 0.5, 0.5, 2.0)), std::invalid_argument);
  EXPECT_THROW(sim.feed(Item(0, 0.5, 1.0, 2.0)), std::invalid_argument);
  // Model violations reject with the stream engine's rules.
  EXPECT_THROW(sim.feed(Item(2, 1.5, 1.0, 2.0)), std::invalid_argument);
  EXPECT_THROW(sim.feed(Item(3, 0.5, 2.0, 2.0)), std::invalid_argument);
  ShardedResult result = sim.finish();
  EXPECT_EQ(result.items, 1u);
  EXPECT_THROW(sim.finish(), std::logic_error);
  EXPECT_THROW(sim.feed(Item(4, 0.5, 3.0, 4.0)), std::logic_error);
}

TEST(ShardedEngine, AnnounceMayOnlyPerturbDeparture) {
  PolicyContext context = tinyContext();
  PolicyPtr policy = makePolicy("cdt-ff", context);
  ShardedOptions options;
  options.announce = [](const Item& r) {
    return Item(r.id, r.size * 0.5, r.arrival(), r.departure());
  };
  ShardedSimulator sim(*policy, options);
  EXPECT_THROW(sim.feed(Item(0, 0.5, 0.0, 1.0)), std::logic_error);
}

TEST(ShardedEngine, EmptyRunYieldsEmptyResult) {
  PolicyContext context = tinyContext();
  PolicyPtr policy = makePolicy("cdt-ff", context);
  ShardedSimulator sim(*policy);
  ShardedResult result = sim.finish();
  EXPECT_EQ(result.items, 0u);
  EXPECT_EQ(result.totalUsage, 0.0);
  EXPECT_EQ(result.binsOpened, 0u);
  EXPECT_EQ(result.epochs, 0u);
}

}  // namespace
}  // namespace cdbp
