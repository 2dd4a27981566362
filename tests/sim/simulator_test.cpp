#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "online/any_fit.hpp"
#include "online/policy_factory.hpp"
#include "sim/sharded.hpp"
#include "sim/streaming.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace cdbp {
namespace {

// A policy that always opens a new bin: maximally wasteful but trivially
// correct; used to probe the simulator's accounting.
class AlwaysNewBin : public OnlinePolicy {
 public:
  std::string name() const override { return "AlwaysNewBin"; }
  bool clairvoyant() const override { return false; }
  PlacementDecision place(const PlacementView&, const Item&) override {
    return PlacementDecision::fresh(0);
  }
};

// A deliberately broken policy that targets bin 0 forever.
class StuckOnBinZero : public OnlinePolicy {
 public:
  std::string name() const override { return "StuckOnBinZero"; }
  bool clairvoyant() const override { return false; }
  PlacementDecision place(const PlacementView& view, const Item&) override {
    if (view.binsOpened() == 0) return PlacementDecision::fresh(0);
    return PlacementDecision::existing(0);
  }
};

TEST(Simulator, AlwaysNewBinUsageIsSumOfDurations) {
  Instance inst = InstanceBuilder()
                      .add(0.2, 0, 2)
                      .add(0.2, 1, 4)
                      .add(0.2, 3, 6)
                      .build();
  AlwaysNewBin policy;
  SimResult result = simulateOnline(inst, policy);
  EXPECT_EQ(result.binsOpened, 3u);
  EXPECT_DOUBLE_EQ(result.totalUsage, 2.0 + 3.0 + 3.0);
  EXPECT_FALSE(result.packing.validate().has_value());
}

TEST(Simulator, DepartureFreesCapacityForSameInstantArrival) {
  // Item 0 occupies the whole bin on [0,1); item 1 arrives exactly at 1.
  Instance inst = InstanceBuilder().add(1.0, 0, 1).add(1.0, 1, 2).build();
  FirstFitPolicy ff;
  SimResult result = simulateOnline(inst, ff);
  // The bin closed at t=1 (it emptied), so First Fit opens a second bin:
  // closed bins never reopen in the online model.
  EXPECT_EQ(result.binsOpened, 2u);
  EXPECT_DOUBLE_EQ(result.totalUsage, 2.0);
}

TEST(Simulator, OverlappingSameInstantItemsShareWhenFeasible) {
  Instance inst = InstanceBuilder().add(0.5, 0, 2).add(0.5, 0, 2).build();
  FirstFitPolicy ff;
  SimResult result = simulateOnline(inst, ff);
  EXPECT_EQ(result.binsOpened, 1u);
  EXPECT_DOUBLE_EQ(result.totalUsage, 2.0);
}

TEST(Simulator, ThrowsOnInfeasiblePolicyDecision) {
  Instance inst = InstanceBuilder().add(0.9, 0, 2).add(0.9, 1, 3).build();
  StuckOnBinZero policy;
  EXPECT_THROW(simulateOnline(inst, policy), std::logic_error);
}

TEST(Simulator, ThrowsWhenPolicyTargetsClosedBin) {
  Instance inst = InstanceBuilder().add(0.9, 0, 1).add(0.9, 5, 6).build();
  StuckOnBinZero policy;  // bin 0 closes at t=1, item 1 arrives at 5
  EXPECT_THROW(simulateOnline(inst, policy), std::logic_error);
}

TEST(Simulator, MaxOpenBinsTracksPeak) {
  Instance inst = InstanceBuilder()
                      .add(0.9, 0, 10)
                      .add(0.9, 1, 3)
                      .add(0.9, 2, 4)
                      .build();
  FirstFitPolicy ff;
  SimResult result = simulateOnline(inst, ff);
  EXPECT_EQ(result.maxOpenBins, 3u);
  EXPECT_EQ(result.packing.maxConcurrentBins(), 3u);
}

TEST(Simulator, AnnounceHookPerturbsOnlyWhatPoliciesSee) {
  Instance inst = InstanceBuilder().add(0.4, 0, 10).add(0.4, 0, 10).build();
  // Record what the policy received.
  struct Recorder : OnlinePolicy {
    std::vector<Time> seenDepartures;
    std::string name() const override { return "Recorder"; }
    bool clairvoyant() const override { return true; }
    PlacementDecision place(const PlacementView& view, const Item& item) override {
      seenDepartures.push_back(item.departure());
      for (BinId id : view.openBins()) {
        if (view.fits(id, item.size)) return PlacementDecision::existing(id);
      }
      return PlacementDecision::fresh(0);
    }
  } recorder;

  SimOptions options;
  options.announce = [](const Item& r) {
    return Item(r.id, r.size, r.arrival(), r.departure() * 2);
  };
  SimResult result = simulateOnline(inst, recorder, options);
  ASSERT_EQ(recorder.seenDepartures.size(), 2u);
  EXPECT_DOUBLE_EQ(recorder.seenDepartures[0], 20.0);
  // The system still evolves with the true departures.
  EXPECT_DOUBLE_EQ(result.totalUsage, 10.0);
}

TEST(Simulator, AnnounceMayNotChangeSizeOrArrival) {
  Instance inst = InstanceBuilder().add(0.4, 0, 10).build();
  FirstFitPolicy ff;
  SimOptions options;
  options.announce = [](const Item& r) {
    return Item(r.id, r.size * 0.5, r.arrival(), r.departure());
  };
  EXPECT_THROW(simulateOnline(inst, ff, options), std::logic_error);
}

TEST(Simulator, CategoriesUsedCountsDistinctTags) {
  Instance inst = InstanceBuilder()
                      .add(0.4, 0, 1)
                      .add(0.4, 0, 1)
                      .add(0.4, 0, 1)
                      .build();
  struct TagPerItem : OnlinePolicy {
    int next = 0;
    std::string name() const override { return "TagPerItem"; }
    bool clairvoyant() const override { return false; }
    PlacementDecision place(const PlacementView&, const Item&) override {
      return PlacementDecision::fresh(next++);
    }
    void reset() override { next = 0; }
  } tagger;
  SimResult result = simulateOnline(inst, tagger);
  EXPECT_EQ(result.categoriesUsed, 3u);
}

class SimulatorFeasibility : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorFeasibility, FirstFitPackingsAlwaysValidate) {
  WorkloadSpec spec;
  spec.numItems = 300;
  spec.mu = 12.0;
  Instance inst = generateWorkload(spec, GetParam());
  FirstFitPolicy ff;
  SimResult result = simulateOnline(inst, ff);
  EXPECT_FALSE(result.packing.validate().has_value());
  EXPECT_DOUBLE_EQ(result.totalUsage, result.packing.totalUsage());
  EXPECT_EQ(result.binsOpened, result.packing.numBins());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorFeasibility,
                         ::testing::Range<std::uint64_t>(1, 11));

// An instance whose ids do not follow arrival order is replayed in
// (arrival, id) order: the same decisions as on its arrival-sorted copy.
// Integer arrivals make many ties, so the id tie-break is exercised.
TEST(Simulator, OutOfArrivalOrderInstanceReplaysInArrivalOrder) {
  WorkloadSpec spec;
  spec.numItems = 300;
  spec.mu = 8.0;
  spec.arrivalRate = 6.0;
  Instance generated = generateWorkload(spec, 21);
  std::vector<Item> items;
  for (const Item& r : generated.items()) {
    Time arrival = std::floor(r.arrival());
    items.emplace_back(0, r.size, arrival, arrival + r.duration());
  }
  Rng rng(21);
  std::shuffle(items.begin(), items.end(), rng.engine());
  Instance shuffled(std::move(items));
  std::vector<Item> order = shuffled.sortedByArrival();
  Instance sorted(order);
  for (const char* policySpec : {"ff", "bf", "cdt-ff"}) {
    SCOPED_TRACE(policySpec);
    PolicyPtr policy =
        makePolicy(policySpec, PolicyContext::forInstance(shuffled));
    SimResult got = simulateOnline(shuffled, *policy);
    SimResult want = simulateOnline(sorted, *policy);
    EXPECT_EQ(got.totalUsage, want.totalUsage);
    EXPECT_EQ(got.binsOpened, want.binsOpened);
    EXPECT_EQ(got.maxOpenBins, want.maxOpenBins);
    EXPECT_EQ(got.categoriesUsed, want.categoriesUsed);
    for (std::size_t k = 0; k < order.size(); ++k) {
      ASSERT_EQ(got.packing.binOf(order[k].id),
                want.packing.binOf(static_cast<ItemId>(k)))
          << "arrival " << k;
    }
  }
}

// --- Engine parity: every engine rejects a bad decision alike ----------

// The what() of the std::logic_error `run` throws, or a marker when it
// throws none.
std::string logicErrorOf(const std::function<void()>& run) {
  try {
    run();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "<no std::logic_error>";
}

StreamItem streamItem(const Item& r) {
  return {r.size, r.arrival(), r.departure()};
}

// One message per engine for the same broken policy on the same items:
// batch (both placement engines), simulateStream, StreamEngine::place and
// the sharded engine. StuckOnBinZero has no shard key, so the sharded run
// is the single-shard fallback and its worker error surfaces from finish().
std::vector<std::string> rejectionsFromEveryEngine(const Instance& inst) {
  std::vector<std::string> messages;
  for (PlacementEngine engine :
       {PlacementEngine::kIndexed, PlacementEngine::kLinearScan}) {
    SimOptions options;
    options.engine = engine;
    messages.push_back(logicErrorOf([&] {
      StuckOnBinZero policy;
      simulateOnline(inst, policy, options);
    }));
  }
  messages.push_back(logicErrorOf([&] {
    StuckOnBinZero policy;
    InstanceArrivalSource source(inst);
    simulateStream(source, policy);
  }));
  messages.push_back(logicErrorOf([&] {
    StuckOnBinZero policy;
    StreamEngine engine(policy);
    for (const Item& r : inst.sortedByArrival()) engine.place(streamItem(r));
  }));
  StuckOnBinZero shardedPolicy;
  ShardedOptions shardedOptions;
  shardedOptions.threads = 2;
  ShardedSimulator sharded(shardedPolicy, shardedOptions);
  for (const Item& r : inst.sortedByArrival()) sharded.feed(r);
  messages.push_back(logicErrorOf([&] { sharded.finish(); }));
  return messages;
}

TEST(EngineParity, EveryEngineRejectsAnOverfillAlike) {
  Instance inst = InstanceBuilder().add(0.9, 0, 2).add(0.9, 1, 3).build();
  for (const std::string& message : rejectionsFromEveryEngine(inst)) {
    EXPECT_EQ(message, "StuckOnBinZero overfilled bin 0 with item 1");
  }
}

TEST(EngineParity, EveryEngineRejectsAClosedBinAlike) {
  Instance inst = InstanceBuilder().add(0.9, 0, 1).add(0.9, 5, 6).build();
  for (const std::string& message : rejectionsFromEveryEngine(inst)) {
    EXPECT_EQ(message, "StuckOnBinZero placed item 1 in closed bin 0");
  }
}

TEST(EngineParity, ShardedRejectsASizePerturbingAnnounce) {
  Instance inst = InstanceBuilder().add(0.4, 0, 10).build();
  auto halveSize = [](const Item& r) {
    return Item(r.id, r.size * 0.5, r.arrival(), r.departure());
  };
  const std::string expected =
      "ShardedOptions::announce may only perturb the departure time";

  PolicyPtr policy = makePolicy("cdt-ff", PolicyContext::forInstance(inst));
  ShardedOptions options;
  options.announce = halveSize;
  ShardedSimulator sim(*policy, options);
  EXPECT_EQ(logicErrorOf([&] { sim.feed(inst[0]); }), expected);

  SimOptions viaBatch;
  viaBatch.engine = PlacementEngine::kSharded;
  viaBatch.announce = halveSize;
  EXPECT_EQ(logicErrorOf([&] { simulateOnline(inst, *policy, viaBatch); }),
            expected);

  StreamOptions viaStream;
  viaStream.engine = PlacementEngine::kSharded;
  viaStream.announce = halveSize;
  InstanceArrivalSource source(inst);
  EXPECT_EQ(logicErrorOf([&] { simulateStream(source, *policy, viaStream); }),
            expected);
}

TEST(EngineParity, EachEngineNamesItsOwnOptionsOnABadAnnounce) {
  Instance inst = InstanceBuilder().add(0.4, 0, 10).build();
  auto moveArrival = [](const Item& r) {
    return Item(r.id, r.size, r.arrival() + 1, r.departure());
  };
  FirstFitPolicy ff;
  SimOptions batch;
  batch.announce = moveArrival;
  EXPECT_EQ(logicErrorOf([&] { simulateOnline(inst, ff, batch); }),
            "SimOptions::announce may only perturb the departure time");
  StreamOptions stream;
  stream.announce = moveArrival;
  StreamEngine engine(ff, stream);
  EXPECT_EQ(logicErrorOf([&] { engine.place(streamItem(inst[0])); }),
            "StreamOptions::announce may only perturb the departure time");
}

}  // namespace
}  // namespace cdbp
