// End-to-end checks that the instrumentation wired through the simulator,
// the online policies and the offline algorithms actually records. All
// value assertions are gated on telemetry::kEnabled so the suite also
// passes on a -DCDBP_TELEMETRY=OFF build (where every delta must be zero).
#include <gtest/gtest.h>

#include "offline/ddff.hpp"
#include "offline/dual_coloring.hpp"
#include "online/any_fit.hpp"
#include "online/classify_departure.hpp"
#include "online/policy_factory.hpp"
#include "sim/simulator.hpp"
#include "sim/streaming.hpp"
#include "telemetry/bench_report.hpp"
#include "telemetry/registry.hpp"
#include "workload/generators.hpp"

namespace cdbp {
namespace {

using telemetry::Registry;
using telemetry::RegistrySnapshot;

Instance smallWorkload(std::size_t n = 60) {
  WorkloadSpec spec;
  spec.numItems = n;
  spec.mu = 8.0;
  return generateWorkload(spec, 5);
}

std::uint64_t delta(const RegistrySnapshot& before,
                    const RegistrySnapshot& after, std::string_view name) {
  return after.counter(name) - before.counter(name);
}

TEST(TelemetryInstrumentation, SimulatorCountsEventsAndPlacements) {
  Instance inst = smallWorkload();
  RegistrySnapshot before = Registry::global().snapshot();
  FirstFitPolicy ff;
  simulateOnline(inst, ff);
  RegistrySnapshot after = Registry::global().snapshot();
  if constexpr (telemetry::kEnabled) {
    // One arrival event per item plus the departures processed before the
    // last arrival (the tail of the queue is only drained when tracing).
    EXPECT_GE(delta(before, after, "sim.events_processed"), inst.size());
    EXPECT_LE(delta(before, after, "sim.events_processed"), 2 * inst.size());
    EXPECT_EQ(delta(before, after, "sim.placements_new_bin") +
                  delta(before, after, "sim.placements_existing_bin"),
              inst.size());
    EXPECT_GE(delta(before, after, "sim.bins_opened"), 1u);
    EXPECT_GE(delta(before, after, "sim.bins_opened"),
              delta(before, after, "sim.bins_closed"));
    EXPECT_GE(delta(before, after, "sim.fit_checks"),
              delta(before, after, "sim.placements_existing_bin"));
  } else {
    EXPECT_EQ(after.counter("sim.events_processed"), 0u);
    EXPECT_EQ(after.counter("sim.fit_checks"), 0u);
  }
}

TEST(TelemetryInstrumentation, PolicyCountersAttributeOpens) {
  Instance inst = smallWorkload();
  RegistrySnapshot before = Registry::global().snapshot();
  FirstFitPolicy ff;
  simulateOnline(inst, ff);
  auto cdt = ClassifyByDepartureFF::withKnownDurations(inst.minDuration(),
                                                       inst.durationRatio());
  simulateOnline(inst, cdt);
  RegistrySnapshot after = Registry::global().snapshot();
  if constexpr (telemetry::kEnabled) {
    EXPECT_GE(delta(before, after, "policy.any_fit.opens"), 1u);
    EXPECT_GE(delta(before, after, "policy.any_fit.fit_attempts"), 1u);
    EXPECT_GE(delta(before, after, "policy.cdt_ff.opens"), 1u);
  }
}

TEST(TelemetryInstrumentation, DdffSplitsSortAndPack) {
  Instance inst = smallWorkload();
  RegistrySnapshot before = Registry::global().snapshot();
  const std::uint64_t sortBefore =
      before.histogram("offline.ddff.sort_ns").count;
  durationDescendingFirstFit(inst);
  RegistrySnapshot after = Registry::global().snapshot();
  if constexpr (telemetry::kEnabled) {
    EXPECT_EQ(delta(before, after, "offline.ddff.runs"), 1u);
    EXPECT_GE(delta(before, after, "offline.ddff.bins_opened"), 1u);
    // The pack loop's per-bin probes run through the shared substrate now,
    // so they land in sim.fit_checks (the former offline.ddff.bins_scanned).
    EXPECT_GE(delta(before, after, "sim.fit_checks"),
              delta(before, after, "offline.ddff.bins_opened"));
    EXPECT_EQ(after.histogram("offline.ddff.sort_ns").count, sortBefore + 1);
  }
}

TEST(TelemetryInstrumentation, DualColoringTimesBothPhases) {
  Instance inst = smallWorkload();
  RegistrySnapshot before = Registry::global().snapshot();
  const std::uint64_t p2Before =
      before.histogram("offline.dual_coloring.phase2_ns").count;
  dualColoring(inst);
  RegistrySnapshot after = Registry::global().snapshot();
  if constexpr (telemetry::kEnabled) {
    EXPECT_EQ(delta(before, after, "offline.dual_coloring.runs"), 1u);
    EXPECT_EQ(after.histogram("offline.dual_coloring.phase2_ns").count,
              p2Before + 1);
  }
}

TEST(TelemetryInstrumentation, FitChecksCountPolicyQueriesOnly) {
  // Regression: sim.fit_checks used to double-count — the simulator's
  // validation re-check of the policy's answer went through the same
  // counted BinManager::fits as the policy's own probes. Validation now
  // uses the uncounted wouldFit, so the counter reflects policy work only:
  // under the linear view, one count per probed bin (item 0 scans zero
  // bins, item 1 probes one), under the indexed engine one count per query
  // (both items query once). Before the fix each placement into an
  // existing bin added one more.
  Instance inst =
      InstanceBuilder().add(0.4, 0, 10).add(0.4, 1, 10).build();
  struct Case {
    PlacementEngine engine;
    std::uint64_t expected;
    const char* label;
  };
  for (const Case& c : {Case{PlacementEngine::kLinearScan, 1, "linear"},
                        Case{PlacementEngine::kIndexed, 2, "indexed"}}) {
    SimOptions options;
    options.engine = c.engine;
    RegistrySnapshot before = Registry::global().snapshot();
    FirstFitPolicy ff;
    SimResult r = simulateOnline(inst, ff, options);
    RegistrySnapshot after = Registry::global().snapshot();
    ASSERT_EQ(r.binsOpened, 1u);
    if constexpr (telemetry::kEnabled) {
      EXPECT_EQ(delta(before, after, "sim.fit_checks"), c.expected)
          << "engine=" << c.label;
    }
  }
}

TEST(TelemetryInstrumentation, OpenBinsGaugeIsZeroAfterDrain) {
  // The stream engine drains every departure at the end of the run,
  // closing every bin.
  Instance inst = smallWorkload();
  InstanceArrivalSource source(inst);
  FirstFitPolicy ff;
  simulateStream(source, ff);
  RegistrySnapshot snap = Registry::global().snapshot();
  for (const auto& [name, g] : snap.gauges) {
    if (name == "sim.open_bins") {
      EXPECT_EQ(g.value, 0);
      if constexpr (telemetry::kEnabled) {
        EXPECT_GE(g.max, 1);
      }
    }
  }
}

TEST(TelemetryInstrumentation, ShardedOpenBinsGaugeHoldsTheMergedPeak) {
  // Each shard's bin manager sees only its own bins; after the run the
  // gauge holds the engine-wide peak and the drained level.
  WorkloadSpec spec;
  spec.numItems = 4000;
  spec.mu = 16.0;
  const Instance inst(generateWorkload(spec, 5).sortedByArrival());
  PolicyPtr policy = makePolicy("cdt-ff", PolicyContext::forInstance(inst));
  SimOptions options;
  options.engine = PlacementEngine::kSharded;
  options.shardedThreads = 3;
  // Reset only where the gauge exists: looking it up would register it.
  if constexpr (telemetry::kEnabled) {
    Registry::global().gauge("sim.open_bins").reset();
  }
  const SimResult result = simulateOnline(inst, *policy, options);
  const telemetry::GaugeSnapshot gauge =
      Registry::global().snapshot().gauge("sim.open_bins");
  EXPECT_EQ(gauge.value, 0);
  if constexpr (telemetry::kEnabled) {
    EXPECT_GE(gauge.max, static_cast<std::int64_t>(result.maxOpenBins));
  }
}

}  // namespace
}  // namespace cdbp
