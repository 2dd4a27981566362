// Concurrency exercise for the telemetry update path; runs under the tsan
// preset (the TelemetryConcurrency suite is in the sanitizer priority
// regex). All updates are relaxed atomics — TSan must stay silent.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "online/policy_factory.hpp"
#include "sim/streaming.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/generators.hpp"

namespace cdbp::telemetry {
namespace {

constexpr int kThreads = 4;
constexpr std::uint64_t kIters = 20000;

TEST(TelemetryConcurrency, CountersAreExactUnderContention) {
  Registry reg;
  Counter& c = reg.counter("contended");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kIters; ++i) c.add();
    });
  }
  for (std::thread& t : threads) t.join();
  if constexpr (kEnabled) {
    EXPECT_EQ(c.value(), kThreads * kIters);
  }
}

TEST(TelemetryConcurrency, HistogramCountSumMinMaxUnderContention) {
  Registry reg;
  Histogram& h = reg.histogram("contended");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kIters; ++i) {
        h.record(static_cast<std::uint64_t>(t) * kIters + i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if constexpr (kEnabled) {
    EXPECT_EQ(h.count(), kThreads * kIters);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), kThreads * kIters - 1);
    std::uint64_t total = 0;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      total += h.bucketCount(b);
    }
    EXPECT_EQ(total, h.count());
  }
}

TEST(TelemetryConcurrency, GaugeMaxIsHighWaterMark) {
  Registry reg;
  Gauge& g = reg.gauge("contended");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, t] {
      for (std::uint64_t i = 0; i < kIters; ++i) {
        g.set(static_cast<std::int64_t>(i % 100) + t);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if constexpr (kEnabled) {
    EXPECT_EQ(g.max(), 99 + kThreads - 1);
    EXPECT_GE(g.value(), 0);
  }
}

TEST(TelemetryConcurrency, RegistryLookupRacesCreation) {
  // Threads race to find-or-create the same and different names; all must
  // agree on the resulting addresses.
  Registry reg;
  std::vector<std::thread> threads;
  std::vector<Counter*> shared(kThreads, nullptr);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &shared, t] {
      for (int i = 0; i < 500; ++i) {
        reg.counter("own." + std::to_string(t) + "." + std::to_string(i));
      }
      shared[static_cast<std::size_t>(t)] = &reg.counter("shared");
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(shared[static_cast<std::size_t>(t)], shared[0]);
  }
}

TEST(TelemetryConcurrency, SnapshotWhileUpdating) {
  Registry reg;
  Counter& c = reg.counter("snap");
  std::thread writer([&c] {
    for (std::uint64_t i = 0; i < kIters; ++i) c.add();
  });
  for (int i = 0; i < 50; ++i) {
    RegistrySnapshot snap = reg.snapshot();
    EXPECT_LE(snap.counter("snap"), kThreads * kIters);
  }
  writer.join();
  if constexpr (kEnabled) {
    EXPECT_EQ(reg.snapshot().counter("snap"), kIters);
  }
}

TEST(TelemetryConcurrency, SiteMacrosFromManyThreads) {
  RegistrySnapshot before = Registry::global().snapshot();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::uint64_t i = 0; i < kIters; ++i) {
        CDBP_TELEM_COUNT("test.concurrency.macro", 1);
        CDBP_TELEM_HIST("test.concurrency.hist", i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  RegistrySnapshot after = Registry::global().snapshot();
  if constexpr (kEnabled) {
    EXPECT_EQ(after.counter("test.concurrency.macro") -
                  before.counter("test.concurrency.macro"),
              kThreads * kIters);
  } else {
    EXPECT_EQ(after.counter("test.concurrency.macro"), 0u);
  }
}

TEST(TelemetryConcurrency, ConcurrentStreamsRecordTheirOwnProbes) {
  // Two engines placing at the same time must each record exactly their
  // own placements' probe counts: one sim.bins_scanned_per_placement sample
  // per placement, and the samples add up to the fit checks both runs
  // issued. The linear engine probes many bins per placement, so a probe
  // attributed to the wrong placement would show in either figure.
  constexpr std::size_t kItems = 20000;
  Histogram& scanned =
      Registry::global().histogram("sim.bins_scanned_per_placement");
  Counter& fitChecks = Registry::global().counter("sim.fit_checks");
  const std::uint64_t countBefore = scanned.count();
  const std::uint64_t sumBefore = scanned.sum();
  const std::uint64_t checksBefore = fitChecks.value();

  std::vector<std::thread> threads;
  for (std::uint64_t seed : {1u, 2u}) {
    threads.emplace_back([seed] {
      WorkloadSpec spec;
      spec.numItems = kItems;
      spec.mu = 8.0;
      Instance inst = generateWorkload(spec, seed);
      PolicyPtr policy = makePolicy("ff", PolicyContext::forInstance(inst));
      StreamOptions options;
      options.engine = PlacementEngine::kLinearScan;
      StreamEngine engine(*policy, options);
      for (const Item& r : inst.sortedByArrival()) {
        engine.place({r.size, r.arrival(), r.departure()});
      }
      engine.finish();
    });
  }
  for (std::thread& t : threads) t.join();

  if constexpr (kEnabled) {
    EXPECT_EQ(scanned.count() - countBefore, 2 * kItems);
    EXPECT_EQ(scanned.sum() - sumBefore, fitChecks.value() - checksBefore);
    EXPECT_GT(fitChecks.value() - checksBefore, 2 * kItems);
  }
}

}  // namespace
}  // namespace cdbp::telemetry
