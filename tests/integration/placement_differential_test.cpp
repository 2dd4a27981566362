// Differential pin of the sublinear placement engine: every policy spec,
// run over randomized workloads with the capacity-indexed engine and with
// the retained linear-scan reference, must produce bit-identical packings.
// The indexed queries use the same fitsCapacity predicate on the same
// doubles as the linear loops (DESIGN.md §9.1), so this is an equality
// test, not an approximation test.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/bin_timeline.hpp"
#include "flexible/flexible_workload.hpp"
#include "flexible/online_flexible.hpp"
#include "multidim/md_policies.hpp"
#include "multidim/md_workload.hpp"
#include "online/policy_factory.hpp"
#include "sim/simulator.hpp"
#include "sim/streaming.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/adversarial.hpp"
#include "workload/generators.hpp"

namespace cdbp {
namespace {

const std::vector<std::string>& allSpecs() {
  static const std::vector<std::string> specs = {
      "ff",     "bf",    "wf",          "nf",      "rf(seed=7)",
      "hybrid-ff", "cdt-ff", "cd-ff",   "combined-ff", "min-ext",
      "dep-bf"};
  return specs;
}

SimResult runWith(const Instance& inst, const std::string& spec,
                  PlacementEngine engine) {
  PolicyPtr policy = makePolicy(spec, PolicyContext::forInstance(inst));
  SimOptions options;
  options.engine = engine;
  return simulateOnline(inst, *policy, options);
}

void expectIdentical(const Instance& inst, const std::string& spec,
                     const std::string& label) {
  SimResult indexed = runWith(inst, spec, PlacementEngine::kIndexed);
  SimResult linear = runWith(inst, spec, PlacementEngine::kLinearScan);
  SCOPED_TRACE(label + " / " + spec);
  // Exact equality: the two engines must take the same decisions, not
  // merely equally good ones.
  EXPECT_EQ(indexed.totalUsage, linear.totalUsage);
  EXPECT_EQ(indexed.binsOpened, linear.binsOpened);
  EXPECT_EQ(indexed.maxOpenBins, linear.maxOpenBins);
  EXPECT_EQ(indexed.categoriesUsed, linear.categoriesUsed);
  for (const Item& r : inst.items()) {
    ASSERT_EQ(indexed.packing.binOf(r.id), linear.packing.binOf(r.id))
        << "item " << r.id;
  }
}

TEST(PlacementDifferential, AllPoliciesOnRandomWorkloads) {
  for (double mu : {1.0, 8.0, 64.0}) {
    for (std::uint64_t seed : {1u, 2u}) {
      WorkloadSpec spec;
      spec.numItems = 120;
      spec.mu = mu;
      Instance inst = generateWorkload(spec, seed);
      for (const std::string& policySpec : allSpecs()) {
        expectIdentical(inst, policySpec,
                        "mu=" + std::to_string(mu) +
                            " seed=" + std::to_string(seed));
      }
    }
  }
}

TEST(PlacementDifferential, ManyOpenBinsStress) {
  // High arrival rate keeps a large open set alive — the regime the index
  // exists for, and the one where a descent bug would actually bite.
  WorkloadSpec spec;
  spec.numItems = 400;
  spec.mu = 16.0;
  spec.arrivalRate = 64.0;
  Instance inst = generateWorkload(spec, 13);
  for (const std::string& policySpec : allSpecs()) {
    expectIdentical(inst, policySpec, "many-open");
  }
}

TEST(PlacementDifferential, SmallSizesPackManyPerBin) {
  // Dozens of items per bin exercise long equal-level runs in the Best Fit
  // set and deep tournament descents.
  WorkloadSpec spec;
  spec.numItems = 300;
  spec.sizes = SizeDist::kSmallOnly;
  spec.minSize = 0.02;
  spec.arrivalRate = 24.0;
  spec.mu = 8.0;
  Instance inst = generateWorkload(spec, 5);
  for (const std::string& policySpec : allSpecs()) {
    expectIdentical(inst, policySpec, "small-sizes");
  }
}

TEST(PlacementDifferential, AdversarialSliverTrap) {
  // The deterministic fragmentation construction: exact half-capacity
  // levels and sliver items sit right on the epsilon boundary.
  Instance inst = firstFitSliverTrap(12, 8.0);
  for (const std::string& policySpec : allSpecs()) {
    expectIdentical(inst, policySpec, "sliver-trap");
  }
}

// The Packing a run returns against one rebuilt from BinTimelines, which
// carry full level maps: total usage (bitwise), per-bin busy periods and
// items, the open-bin profile and its peak.
void expectPackingMatchesTimelineOracle(const SimResult& result,
                                        const std::string& label) {
  SCOPED_TRACE(label);
  const Packing& packing = result.packing;
  std::vector<BinTimeline> oracle(packing.numBins());
  for (const Item& r : packing.instance().items()) {
    oracle[static_cast<std::size_t>(packing.binOf(r.id))].add(r);
  }
  Time usage = 0;
  StepFunction profile;
  for (std::size_t b = 0; b < oracle.size(); ++b) {
    usage += oracle[b].usage();
    const PackedBin& bin = packing.bin(static_cast<BinId>(b));
    ASSERT_EQ(bin.busyPeriods(), oracle[b].busyPeriods()) << "bin " << b;
    ASSERT_EQ(bin.items(), oracle[b].items()) << "bin " << b;
    for (const Interval& busy : oracle[b].busyPeriods().parts()) {
      profile.add(busy, 1.0);
    }
  }
  EXPECT_EQ(packing.totalUsage(), usage);
  EXPECT_EQ(result.totalUsage, usage);
  StepFunction got = packing.openBinProfile();
  ASSERT_EQ(got.breakpoints(), profile.breakpoints());
  std::vector<StepFunction::Segment> gotSegments = got.segments();
  std::vector<StepFunction::Segment> wantSegments = profile.segments();
  ASSERT_EQ(gotSegments.size(), wantSegments.size());
  for (std::size_t i = 0; i < gotSegments.size(); ++i) {
    EXPECT_EQ(gotSegments[i].interval, wantSegments[i].interval);
    EXPECT_EQ(gotSegments[i].value, wantSegments[i].value);
  }
  EXPECT_EQ(packing.maxConcurrentBins(),
            static_cast<std::size_t>(profile.maxValue() + 0.5));
  EXPECT_FALSE(packing.validate().has_value());
}

TEST(PlacementDifferential, PackingMatchesBinTimelineOracle) {
  std::vector<std::pair<std::string, Instance>> cases;
  for (double mu : {1.0, 8.0, 64.0}) {
    WorkloadSpec spec;
    spec.numItems = 120;
    spec.mu = mu;
    cases.emplace_back("mu=" + std::to_string(mu), generateWorkload(spec, 1));
  }
  WorkloadSpec manyOpen;
  manyOpen.numItems = 400;
  manyOpen.mu = 16.0;
  manyOpen.arrivalRate = 64.0;
  cases.emplace_back("many-open", generateWorkload(manyOpen, 13));
  cases.emplace_back("sliver-trap", firstFitSliverTrap(12, 8.0));
  for (const auto& [label, inst] : cases) {
    for (const std::string& policySpec : allSpecs()) {
      expectPackingMatchesTimelineOracle(
          runWith(inst, policySpec, PlacementEngine::kIndexed),
          label + " / " + policySpec);
    }
  }
}

// --- Multidim suites: the generic substrate's vector instantiation must
// agree engine for engine too. The vector tournament descent is only a
// sound prune (it backtracks), so these suites are what certify that it
// still lands on the leftmost genuinely fitting bin.

struct MdPolicyConfig {
  std::string label;
  MdClassifyPolicy::Config config;
};

const std::vector<MdPolicyConfig>& allMdConfigs() {
  static const std::vector<MdPolicyConfig> configs = {
      {"md-ff", {MdFitRule::kFirstFit, MdCategoryRule::kNone, 1, 1, 2}},
      {"md-df", {MdFitRule::kDominantFit, MdCategoryRule::kNone, 1, 1, 2}},
      {"md-cdt-ff", {MdFitRule::kFirstFit, MdCategoryRule::kDeparture, 6, 1, 2}},
      {"md-cdt-df",
       {MdFitRule::kDominantFit, MdCategoryRule::kDeparture, 6, 1, 2}},
      {"md-cd-ff", {MdFitRule::kFirstFit, MdCategoryRule::kDuration, 1, 1, 2}},
      {"md-cd-df",
       {MdFitRule::kDominantFit, MdCategoryRule::kDuration, 1, 1, 2}},
  };
  return configs;
}

MdSimResult runMdWith(const MdInstance& inst,
                      const MdClassifyPolicy::Config& config,
                      PlacementEngine engine) {
  MdClassifyPolicy policy(config);
  MdSimOptions options;
  options.engine = engine;
  return mdSimulateOnline(inst, policy, options);
}

void expectMdIdentical(const MdInstance& inst, const MdPolicyConfig& config,
                       const std::string& label) {
  MdSimResult indexed = runMdWith(inst, config.config, PlacementEngine::kIndexed);
  MdSimResult linear =
      runMdWith(inst, config.config, PlacementEngine::kLinearScan);
  SCOPED_TRACE(label + " / " + config.label);
  EXPECT_EQ(indexed.totalUsage, linear.totalUsage);
  EXPECT_EQ(indexed.binsOpened, linear.binsOpened);
  EXPECT_EQ(indexed.maxOpenBins, linear.maxOpenBins);
  for (const MdItem& r : inst.items()) {
    ASSERT_EQ(indexed.packing.binOf(r.id), linear.packing.binOf(r.id))
        << "item " << r.id;
  }
}

TEST(PlacementDifferential, MultidimAllConfigsOnRandomWorkloads) {
  for (std::size_t dims : {2u, 3u}) {
    for (double correlation : {0.0, 1.0}) {
      MdWorkloadSpec spec;
      spec.numItems = 150;
      spec.dims = dims;
      spec.correlation = correlation;
      MdInstance inst = generateMdWorkload(spec, 31 + dims);
      for (const MdPolicyConfig& config : allMdConfigs()) {
        expectMdIdentical(inst, config,
                          "dims=" + std::to_string(dims) +
                              " corr=" + std::to_string(correlation));
      }
    }
  }
}

TEST(PlacementDifferential, MultidimManyOpenBinsStress) {
  // Large open set + low correlation: the regime where the vector
  // descent's sound-prune backtracking actually runs, and where a
  // leftmost-selection bug would surface.
  MdWorkloadSpec spec;
  spec.numItems = 400;
  spec.dims = 3;
  spec.arrivalRate = 64.0;
  spec.mu = 16.0;
  spec.correlation = 0.0;
  MdInstance inst = generateMdWorkload(spec, 47);
  for (const MdPolicyConfig& config : allMdConfigs()) {
    expectMdIdentical(inst, config, "md-many-open");
  }
}

TEST(PlacementDifferential, MultidimAdversarialAlternatingDominant) {
  // Lift the scalar sliver trap to 2 dims with the dominant coordinate
  // alternating per item: per-dimension levels sit on the epsilon boundary
  // in different dimensions of different bins, the worst case for a
  // componentwise-min prune.
  Instance trap = firstFitSliverTrap(12, 8.0);
  MdInstanceBuilder builder;
  for (const Item& r : trap.items()) {
    double minor = std::min(0.05, r.size);
    if (r.id % 2 == 0) {
      builder.add(Resources({r.size, minor}), r.arrival(), r.departure());
    } else {
      builder.add(Resources({minor, r.size}), r.arrival(), r.departure());
    }
  }
  MdInstance inst = builder.build();
  for (const MdPolicyConfig& config : allMdConfigs()) {
    expectMdIdentical(inst, config, "md-sliver-trap");
  }
}

// --- Flexible suites: the event-driven flexible scheduler's First Fit
// queries route through the same view; starts, forced starts and the final
// packing must be bit-identical across engines.

void expectFlexIdentical(const FlexibleInstance& inst, FlexOnlinePolicy& policy,
                         const std::string& label) {
  FlexSimOptions indexedOptions;
  indexedOptions.engine = PlacementEngine::kIndexed;
  FlexOnlineResult indexed = simulateFlexibleOnline(inst, policy, indexedOptions);
  FlexSimOptions linearOptions;
  linearOptions.engine = PlacementEngine::kLinearScan;
  FlexOnlineResult linear = simulateFlexibleOnline(inst, policy, linearOptions);
  SCOPED_TRACE(label + " / " + policy.name());
  EXPECT_EQ(indexed.totalUsage, linear.totalUsage);
  EXPECT_EQ(indexed.binsOpened, linear.binsOpened);
  EXPECT_EQ(indexed.forcedStarts, linear.forcedStarts);
  ASSERT_EQ(indexed.starts.size(), linear.starts.size());
  for (const FlexibleJob& j : inst.jobs()) {
    EXPECT_EQ(indexed.starts[j.id], linear.starts[j.id]) << "job " << j.id;
    ASSERT_EQ(indexed.packing.binOf(j.id), linear.packing.binOf(j.id))
        << "job " << j.id;
  }
}

TEST(PlacementDifferential, FlexiblePoliciesOnRandomWorkloads) {
  for (double slack : {0.5, 3.0}) {
    for (std::uint64_t seed : {3u, 9u}) {
      FlexibleWorkloadSpec spec;
      spec.numJobs = 150;
      spec.slackFactor = slack;
      FlexibleInstance inst = generateFlexibleWorkload(spec, seed);
      std::string label =
          "slack=" + std::to_string(slack) + " seed=" + std::to_string(seed);
      FlexStartAsapFF asap;
      expectFlexIdentical(inst, asap, label);
      FlexDeferAlign align;
      expectFlexIdentical(inst, align, label);
    }
  }
}

TEST(PlacementDifferential, FlexibleAdversarialZeroSlackSliverTrap) {
  // Zero slack forces every start at release: the scheduler degenerates to
  // scalar First Fit over the sliver trap, with every placement on the
  // forced path — the fresh-bin fallback and forced First Fit must agree
  // across engines too.
  Instance trap = firstFitSliverTrap(10, 6.0);
  FlexibleInstanceBuilder builder;
  for (const Item& r : trap.items()) {
    builder.add(r.size, r.arrival(), r.departure(), r.duration());
  }
  FlexibleInstance inst = builder.build();
  FlexStartAsapFF asap;
  expectFlexIdentical(inst, asap, "flex-sliver-trap");
  FlexDeferAlign align;
  expectFlexIdentical(inst, align, "flex-sliver-trap");
}

TEST(PlacementDifferential, RandomizedPropertySweep) {
  // Broad randomized property: many small instances across the generator's
  // parameter space, three representative query shapes (leftmost, fullest,
  // emptiest) plus the category-scoped classify policy.
  const std::vector<std::string> fast = {"ff", "bf", "wf", "cdt-ff"};
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    WorkloadSpec spec;
    spec.numItems = 60 + (seed % 5) * 30;
    spec.mu = 1.0 + static_cast<double>(seed % 7) * 9.0;
    spec.arrivalRate = 2.0 + static_cast<double>(seed % 4) * 16.0;
    Instance inst = generateWorkload(spec, seed);
    for (const std::string& policySpec : fast) {
      expectIdentical(inst, policySpec, "sweep seed=" + std::to_string(seed));
    }
  }
}

// --- Long churn: tens of thousands of bins open and close while a few
// dozen are open at once, so every index scope compacts many times
// (DESIGN.md §9.1). Compaction renumbers slots but keeps opening order,
// so the engines must still agree placement for placement and probe for
// probe.

std::uint64_t fitChecks() {
  return telemetry::Registry::global().snapshot().counter("sim.fit_checks");
}

// Fit checks one engine issues on `inst`, counted on the stream engine
// (StreamEngine), which keeps its own index and so compacts on its own.
std::uint64_t streamFitChecks(const Instance& inst, const std::string& spec,
                              PlacementEngine engine) {
  PolicyPtr policy = makePolicy(spec, PolicyContext::forInstance(inst));
  StreamOptions options;
  options.engine = engine;
  options.computeLowerBound = false;
  InstanceArrivalSource source(inst);
  std::uint64_t before = fitChecks();
  simulateStream(source, *policy, options);
  return fitChecks() - before;
}

TEST(PlacementDifferential, LongChurnThroughCompactingIndex) {
  WorkloadSpec spec;
  spec.numItems = 100000;
  spec.arrivalRate = 8.0;
  spec.mu = 8.0;
  Instance inst = generateWorkload(spec, 2024);
  for (const std::string& policySpec : allSpecs()) {
    SCOPED_TRACE("long-churn / " + policySpec);
    std::uint64_t before = fitChecks();
    SimResult indexed = runWith(inst, policySpec, PlacementEngine::kIndexed);
    std::uint64_t indexedChecks = fitChecks() - before;
    before = fitChecks();
    SimResult linear = runWith(inst, policySpec, PlacementEngine::kLinearScan);
    std::uint64_t linearChecks = fitChecks() - before;

    // The workload is the regime the compaction exists for.
    EXPECT_GE(indexed.binsOpened, 10000u);
    EXPECT_LE(indexed.maxOpenBins, 64u);

    EXPECT_EQ(indexed.totalUsage, linear.totalUsage);
    EXPECT_EQ(indexed.binsOpened, linear.binsOpened);
    EXPECT_EQ(indexed.maxOpenBins, linear.maxOpenBins);
    EXPECT_EQ(indexed.categoriesUsed, linear.categoriesUsed);
    for (const Item& r : inst.items()) {
      ASSERT_EQ(indexed.packing.binOf(r.id), linear.packing.binOf(r.id))
          << "item " << r.id;
    }
    // An indexed query counts once and a linear scan once per probe, so
    // each engine is pinned against its own stream twin, whose index
    // compacts at different moments (it also closes the trailing bins).
    if (telemetry::kEnabled) {
      EXPECT_EQ(streamFitChecks(inst, policySpec, PlacementEngine::kIndexed),
                indexedChecks);
      EXPECT_EQ(streamFitChecks(inst, policySpec, PlacementEngine::kLinearScan),
                linearChecks);
    }
  }
}

TEST(PlacementDifferential, MultidimLongChurnThroughCompactingIndex) {
  MdWorkloadSpec spec;
  spec.numItems = 30000;
  spec.dims = 3;
  spec.arrivalRate = 8.0;
  spec.mu = 8.0;
  spec.correlation = 0.0;
  MdInstance inst = generateMdWorkload(spec, 2025);
  for (const MdPolicyConfig& config : allMdConfigs()) {
    if (config.label != "md-ff" && config.label != "md-df") continue;
    SCOPED_TRACE("md-long-churn / " + config.label);
    MdSimResult indexed =
        runMdWith(inst, config.config, PlacementEngine::kIndexed);
    EXPECT_GE(indexed.binsOpened, 3000u);
    EXPECT_LE(indexed.maxOpenBins, 64u);
    expectMdIdentical(inst, config, "md-long-churn");
  }
}

}  // namespace
}  // namespace cdbp
