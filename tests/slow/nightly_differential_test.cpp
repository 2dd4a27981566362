// Nightly-scale streaming ≡ batch battery (ctest label: slow).
//
// The tier-1 battery (integration/streaming_differential_test.cpp) crosses
// every (spec, engine, source) on small instances. This suite re-proves the
// same bit-identity at the scales where rare event collisions actually
// occur — thousands of items, equal-departure pileups, bursty arrival
// fronts — and exercises the bounded-memory claim on a million-item
// exported trace. Excluded from the default ctest run (-LE slow); CI runs
// it in the nightly-differential job under asan-ubsan.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "online/policy_factory.hpp"
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

std::uint64_t fitChecks() {
  return telemetry::Registry::global().snapshot().counter("sim.fit_checks");
}

void expectStreamEquivalence(const Instance& inst, const std::string& label,
                             bool includeTraceFiles) {
  Instance canonical(inst.sortedByArrival());
  PolicyContext context = PolicyContext::forInstance(canonical);

  for (PlacementEngine engine :
       {PlacementEngine::kIndexed, PlacementEngine::kLinearScan}) {
    const char* engineName =
        engine == PlacementEngine::kIndexed ? "indexed" : "linear";
    for (const std::string& spec : allSpecs()) {
      SCOPED_TRACE(label + " / " + spec + " / " + engineName);

      PolicyPtr batchPolicy = makePolicy(spec, context);
      SimOptions batchOptions;
      batchOptions.engine = engine;
      std::uint64_t batchBefore = fitChecks();
      SimResult batch = simulateOnline(canonical, *batchPolicy, batchOptions);
      std::uint64_t batchChecks = fitChecks() - batchBefore;

      auto check = [&](ArrivalSource& source) {
        PolicyPtr policy = makePolicy(spec, context);
        StreamOptions options;
        options.engine = engine;
        options.computeLowerBound = false;
        std::vector<BinId> bins;
        options.onPlacement = [&bins](ItemId /*id*/, BinId bin,
                                      bool /*newBin*/, int /*category*/) {
          bins.push_back(bin);
        };
        std::uint64_t before = fitChecks();
        StreamResult streamed = simulateStream(source, *policy, options);
        std::uint64_t streamChecks = fitChecks() - before;

        EXPECT_EQ(streamed.totalUsage, batch.totalUsage);
        EXPECT_EQ(streamed.binsOpened, batch.binsOpened);
        EXPECT_EQ(streamed.maxOpenBins, batch.maxOpenBins);
        EXPECT_EQ(streamed.categoriesUsed, batch.categoriesUsed);
        ASSERT_EQ(bins.size(), canonical.size());
        for (std::size_t i = 0; i < bins.size(); ++i) {
          ASSERT_EQ(bins[i], batch.packing.binOf(static_cast<ItemId>(i)))
              << "item " << i;
        }
        if (telemetry::kEnabled) {
          EXPECT_EQ(streamChecks, batchChecks);
        }
      };

      InstanceArrivalSource memorySource(canonical);
      check(memorySource);

      if (!includeTraceFiles) continue;
      for (TraceFormat format : {TraceFormat::kCsv, TraceFormat::kJsonl}) {
        std::stringstream buffer;
        writeTrace(canonical, buffer, format);
        TraceArrivalSource fileSource(buffer, format,
                                      traceFormatName(format));
        SCOPED_TRACE("via " + traceFormatName(format));
        check(fileSource);
      }
    }
  }
}

TEST(NightlyDifferential, LargeRandomGrid) {
  for (double mu : {1.0, 8.0, 64.0}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      for (double rate : {4.0, 64.0}) {
        WorkloadSpec spec;
        spec.numItems = 2000;
        spec.mu = mu;
        spec.arrivalRate = rate;
        Instance inst = generateWorkload(spec, seed);
        expectStreamEquivalence(
            inst,
            "mu=" + std::to_string(mu) + " seed=" + std::to_string(seed) +
                " rate=" + std::to_string(rate),
            seed == 1u && rate == 4.0);
      }
    }
  }
}

TEST(NightlyDifferential, HeavyTailedAndBursty) {
  for (DurationDist dist :
       {DurationDist::kPareto, DurationDist::kBimodal}) {
    WorkloadSpec spec;
    spec.numItems = 1500;
    spec.mu = 64.0;
    spec.durations = dist;
    spec.arrivals = ArrivalProcess::kBursty;
    spec.burstSize = 16;
    Instance inst = generateWorkload(spec, 23);
    expectStreamEquivalence(inst, "heavy-tailed", true);
  }
}

TEST(NightlyDifferential, LargeAdversarialTrap) {
  Instance inst = firstFitSliverTrap(64, 32.0);
  expectStreamEquivalence(inst, "large-sliver-trap", true);
}

TEST(NightlyDifferential, MillionItemTraceStreamsBounded) {
  // The headline memory claim at full scale: export a 1M-item trace and
  // stream it back through First Fit. Peak simultaneously-open items must
  // sit orders of magnitude below the item count — the stream never holds
  // the workload.
  namespace fs = std::filesystem;
  WorkloadSpec spec;
  spec.numItems = 1000000;
  spec.mu = 16.0;
  Instance inst = generateWorkload(spec, 99);
  fs::path path = fs::temp_directory_path() / "cdbp_nightly_1m.jsonl";
  saveTrace(inst, path.string(), "nightly 1M stream test");

  PolicyContext context = PolicyContext::forInstance(inst);
  PolicyPtr policy = makePolicy("ff", context);
  TraceArrivalSource source(path.string());
  // Pushed item by item so the placement index can be watched: its slot
  // capacity must follow the open bins (at most 4 * peak + 1 leaves, the
  // compaction bound), never the bins ever opened.
  StreamEngine engine(*policy, StreamOptions{});
  std::size_t peakOpenBins = 0;
  std::size_t peakSlotCapacity = 0;
  StreamItem incoming;
  while (source.next(incoming)) {
    engine.place(incoming);
    peakOpenBins = std::max(peakOpenBins, engine.openBins());
    peakSlotCapacity = std::max(peakSlotCapacity, engine.indexSlotCapacity());
  }
  StreamResult result = engine.finish();
  fs::remove(path);
  EXPECT_LE(peakSlotCapacity, 4 * peakOpenBins + 1)
      << "index slots " << peakSlotCapacity << ", peak open bins "
      << peakOpenBins << ", bins opened " << result.binsOpened;
  EXPECT_GT(result.binsOpened, 4 * (4 * peakOpenBins + 1))
      << "the trace must open far more bins than are ever open at once";

  ASSERT_EQ(result.items, 1000000u);
  EXPECT_LT(result.peakOpenItems * 100, result.items)
      << "peak open items " << result.peakOpenItems;
  // Batch agreement at scale, on the aggregate: the full per-item pin runs
  // on the smaller grids above.
  SimResult batch = simulateOnline(Instance(inst.sortedByArrival()), *policy);
  EXPECT_EQ(result.totalUsage, batch.totalUsage);
  EXPECT_EQ(result.binsOpened, batch.binsOpened);
}

}  // namespace
}  // namespace cdbp
