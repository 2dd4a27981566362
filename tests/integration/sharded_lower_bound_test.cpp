// The sharded engine's Proposition 3 bound and its epoch pipeline under
// stress. The feed thread takes lb3 and peakOpenItems from the departure
// logs the shards write per epoch, merged with the epoch's arrivals; these
// tests pin both bitwise against StreamEngine across tiny epochs, shallow
// pipelines, idle shards, departures that land exactly on an epoch's last
// arrival, -0.0 departures and equal-time departures from different
// shards. They also cover a worker failure with epochs in flight and the
// pipeline's stage counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "online/policy_factory.hpp"
#include "sim/sharded.hpp"
#include "sim/streaming.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/generators.hpp"

namespace cdbp {
namespace {

// Integer times, three arrivals per instant and integer durations: many
// departures land on arrivals, and for every epoch size some land on an
// epoch's last arrival. The negative-time prefix departs at -0.0 and +0.0,
// which must drain by id alongside an arrival at +0.0 and one at -0.0.
Instance coincidentTimes() {
  InstanceBuilder builder;
  builder.add(0.25, -2.0, -0.0)
      .add(0.5, -1.0, 0.0)
      .add(0.125, -1.0, -0.0)
      .add(0.375, -0.5, 1.0)
      .add(0.2, -0.0, 2.0);
  for (int i = 0; i < 240; ++i) {
    const double arrival = i / 3;
    builder.add(0.05 + ((i * 13) % 17) / 40.0, arrival,
                arrival + 1 + (i * 7) % 5);
  }
  return builder.build();
}

struct Lb3Run {
  double lb3 = 0;
  std::size_t peakOpenItems = 0;
  std::size_t shards = 0;
  std::size_t categoriesUsed = 0;
};

Lb3Run runStream(const Instance& canonical, const std::string& spec,
                 const PolicyContext& context) {
  PolicyPtr policy = makePolicy(spec, context);
  InstanceArrivalSource source(canonical);
  StreamResult result = simulateStream(source, *policy);
  return {result.lb3, result.peakOpenItems, 1, result.categoriesUsed};
}

Lb3Run runSharded(const Instance& canonical, const std::string& spec,
                  const PolicyContext& context, ShardedOptions options) {
  PolicyPtr policy = makePolicy(spec, context);
  options.computeLowerBound = true;
  ShardedSimulator sim(*policy, options);
  for (const Item& r : canonical.sortedByArrival()) sim.feed(r);
  ShardedResult result = sim.finish();
  return {result.lb3, result.peakOpenItems, result.shards,
          result.categoriesUsed};
}

TEST(ShardedDifferential, LowerBoundAcrossTinyEpochsAndIdleShards) {
  WorkloadSpec wspec;
  wspec.numItems = 300;
  wspec.mu = 16.0;
  wspec.arrivalRate = 64.0;
  const std::vector<std::pair<std::string, Instance>> workloads = {
      {"coincident", coincidentTimes()},
      {"random", generateWorkload(wspec, 23)}};

  for (const auto& [label, inst] : workloads) {
    Instance canonical(inst.sortedByArrival());
    PolicyContext context = PolicyContext::forInstance(canonical);
    // cdt-ff and cd-ff shard by category; ff takes the single-shard
    // fallback.
    for (const std::string spec : {"cdt-ff", "cd-ff", "ff"}) {
      const Lb3Run oracle = runStream(canonical, spec, context);
      ASSERT_GT(oracle.lb3, 0.0);
      for (std::size_t epochArrivals : {1, 3, 8}) {
        for (std::size_t inFlight : {1, 2}) {
          for (std::size_t threads : {1, 2, 4, 8}) {
            SCOPED_TRACE(label + " / " + spec + " / epoch " +
                         std::to_string(epochArrivals) + " / in flight " +
                         std::to_string(inFlight) + " / t" +
                         std::to_string(threads));
            ShardedOptions options;
            options.threads = threads;
            options.epochArrivals = epochArrivals;
            options.maxEpochsInFlight = inFlight;
            const Lb3Run sharded = runSharded(canonical, spec, context, options);
            EXPECT_EQ(sharded.lb3, oracle.lb3);
            EXPECT_EQ(sharded.peakOpenItems, oracle.peakOpenItems);
          }
        }
      }
    }
  }

  // The runs above include shards that never get an item: cd-ff puts the
  // coincident instance's handful of durations into fewer classes than
  // eight workers.
  Instance canonical(coincidentTimes().sortedByArrival());
  PolicyContext context = PolicyContext::forInstance(canonical);
  ShardedOptions options;
  options.threads = 8;
  const Lb3Run idle = runSharded(canonical, "cd-ff", context, options);
  EXPECT_EQ(idle.shards, 8u);
  EXPECT_LT(idle.categoriesUsed, idle.shards);
}

// Keyed by id parity, one new bin per item: item 0's key goes to shard 0
// and item 1's to shard 1.
class ShardedByParity : public OnlinePolicy {
 public:
  std::string name() const override { return "ShardedByParity"; }
  bool clairvoyant() const override { return false; }
  PlacementDecision place(const PlacementView&, const Item& item) override {
    return PlacementDecision::fresh(static_cast<int>(*shardKey(item)));
  }
  std::optional<long long> shardKey(const Item& item) const override {
    return static_cast<long long>(item.id % 2);
  }
  std::unique_ptr<OnlinePolicy> clone() const override {
    return std::make_unique<ShardedByParity>();
  }
};

// Items 1 and 2 depart together at 5 from different shards, and the
// order of their two subtractions decides the bound: taking 0.45 then
// 0.35 off 1.8 + 1e-9 leaves the level just above 1 + 1e-9, so
// ceil(level) = 2 over [5, 10]; the other order leaves it one ulp lower,
// where it snaps to 1. Shard 0 holds the higher id, so a merge that broke
// equal times by log instead of by id would read 15 or 16, not 20.
TEST(ShardedDifferential, EqualTimeDeparturesMergeById) {
  for (bool laterArrival : {false, true}) {
    SCOPED_TRACE(laterArrival ? "merged in an epoch" : "merged at finish");
    InstanceBuilder builder;
    builder.add(1.0, 0.0, 10.0)
        .add(0.45, 0.0, 5.0)
        .add(0.35, 0.0, 5.0)
        .add(1e-9, 0.0, 10.0);
    // An arrival after the tie moves it from the final-drain logs into the
    // second epoch's logs.
    if (laterArrival) builder.add(0.5, 7.0, 8.0);
    Instance canonical(builder.build().sortedByArrival());

    ShardedByParity streamPolicy;
    InstanceArrivalSource source(canonical);
    const StreamResult oracle = simulateStream(source, streamPolicy);
    EXPECT_EQ(oracle.lb3, 20.0);

    ShardedByParity prototype;
    ShardedOptions options;
    options.threads = 2;
    options.epochArrivals = 4;
    options.computeLowerBound = true;
    ShardedSimulator sim(prototype, options);
    for (const Item& r : canonical.sortedByArrival()) sim.feed(r);
    const ShardedResult result = sim.finish();
    EXPECT_EQ(result.shards, 2u);
    EXPECT_EQ(result.lb3, oracle.lb3);
    EXPECT_EQ(result.peakOpenItems, oracle.peakOpenItems);
  }
}

// Keyed by id mod 3, one new bin per item; the shard that owns key 1
// throws on its N-th placement.
class ThrowsOnNthPlacement : public OnlinePolicy {
 public:
  explicit ThrowsOnNthPlacement(std::size_t n) : n_(n) {}
  std::string name() const override { return "ThrowsOnNthPlacement"; }
  bool clairvoyant() const override { return false; }
  PlacementDecision place(const PlacementView&, const Item& item) override {
    const long long key = *shardKey(item);
    if (key == 1 && ++keyOnePlacements_ == n_) {
      throw std::logic_error("injected failure at placement " +
                             std::to_string(n_));
    }
    return PlacementDecision::fresh(static_cast<int>(key));
  }
  void reset() override { keyOnePlacements_ = 0; }
  std::optional<long long> shardKey(const Item& item) const override {
    return static_cast<long long>(item.id % 3);
  }
  std::unique_ptr<OnlinePolicy> clone() const override {
    return std::make_unique<ThrowsOnNthPlacement>(n_);
  }

 private:
  std::size_t n_;
  std::size_t keyOnePlacements_ = 0;
};

TEST(ShardedEngine, WorkerErrorWithEpochsInFlightRethrows) {
  WorkloadSpec wspec;
  wspec.numItems = 240;
  wspec.mu = 8.0;
  wspec.arrivalRate = 32.0;
  Instance canonical(generateWorkload(wspec, 31).sortedByArrival());

  // Early, mid-run and on the shard's last placement (80 items carry key 1).
  for (std::size_t n : {1, 40, 80}) {
    SCOPED_TRACE("placement " + std::to_string(n));
    ThrowsOnNthPlacement policy(n);
    ShardedOptions options;
    options.threads = 3;
    options.epochArrivals = 4;
    options.maxEpochsInFlight = 2;
    options.computeLowerBound = true;
    ShardedSimulator sim(policy, options);
    std::string error;
    try {
      for (const Item& r : canonical.sortedByArrival()) sim.feed(r);
      sim.finish();
    } catch (const std::logic_error& e) {
      error = e.what();
    }
    EXPECT_EQ(error, "injected failure at placement " + std::to_string(n));
  }
}

// Read through a snapshot, which registers nothing: under
// CDBP_TELEMETRY=OFF the counters stay absent and read 0.
std::uint64_t counterValue(const char* name) {
  return telemetry::Registry::global().snapshot().counter(name);
}

TEST(ShardedTelemetry, StageCountersFollowTheLowerBound) {
  WorkloadSpec wspec;
  wspec.numItems = 400;
  wspec.mu = 16.0;
  wspec.arrivalRate = 64.0;
  Instance canonical(generateWorkload(wspec, 37).sortedByArrival());
  PolicyContext context = PolicyContext::forInstance(canonical);

  for (bool lowerBound : {true, false}) {
    SCOPED_TRACE(lowerBound ? "lb3 on" : "lb3 off");
    PolicyPtr policy = makePolicy("cdt-ff", context);
    ShardedOptions options;
    options.threads = 2;
    options.epochArrivals = 8;
    options.maxEpochsInFlight = 1;
    options.computeLowerBound = lowerBound;
    const std::uint64_t waitBefore = counterValue("sim.sharded.feed_wait_ns");
    const std::uint64_t mergeBefore = counterValue("sim.sharded.lb3_merge_ns");
    ShardedSimulator sim(*policy, options);
    for (const Item& r : canonical.sortedByArrival()) sim.feed(r);
    const ShardedResult result = sim.finish();
    ASSERT_GT(result.epochs, 1u);
    const std::uint64_t wait =
        counterValue("sim.sharded.feed_wait_ns") - waitBefore;
    const std::uint64_t merge =
        counterValue("sim.sharded.lb3_merge_ns") - mergeBefore;
    if constexpr (telemetry::kEnabled) {
      EXPECT_GT(wait, 0u);
      if (lowerBound) {
        EXPECT_GT(merge, 0u);
      } else {
        EXPECT_EQ(merge, 0u);
      }
    } else {
      EXPECT_EQ(wait, 0u);
      EXPECT_EQ(merge, 0u);
    }
  }
}

}  // namespace
}  // namespace cdbp
