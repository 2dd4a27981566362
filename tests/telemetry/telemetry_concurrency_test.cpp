// Concurrency exercise for the telemetry update path; runs under the tsan
// preset (the TelemetryConcurrency suite is in the sanitizer priority
// regex). Shared-slot updates are relaxed read-modify-writes, owned-slot
// updates relaxed loads plus stores, reads atomic loads — TSan must stay
// silent.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "online/policy_factory.hpp"
#include "sim/simulator.hpp"
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

// The engines' probe metrics between two snapshots of the global registry.
// Snapshots read without registering, so a telemetry-off build's registry
// stays empty.
struct ProbeDeltas {
  std::uint64_t samples = 0;  ///< sim.bins_scanned_per_placement count
  std::uint64_t scanned = 0;  ///< its sum
  std::uint64_t fitChecks = 0;
};

ProbeDeltas probeDeltas(const RegistrySnapshot& before,
                        const RegistrySnapshot& after) {
  const char* kScanned = "sim.bins_scanned_per_placement";
  return {after.histogram(kScanned).count - before.histogram(kScanned).count,
          after.histogram(kScanned).sum - before.histogram(kScanned).sum,
          after.counter("sim.fit_checks") - before.counter("sim.fit_checks")};
}

TEST(TelemetryConcurrency, ConcurrentStreamsRecordTheirOwnProbes) {
  // Two engines placing at the same time must each record exactly their
  // own placements' probe counts: one sim.bins_scanned_per_placement sample
  // per placement, and the samples add up to the fit checks both runs
  // issued. The linear engine probes many bins per placement, so a probe
  // attributed to the wrong placement would show in either figure.
  constexpr std::size_t kItems = 20000;
  const RegistrySnapshot before = Registry::global().snapshot();

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

  const RegistrySnapshot after = Registry::global().snapshot();
  const ProbeDeltas probes = probeDeltas(before, after);
  if constexpr (kEnabled) {
    EXPECT_EQ(probes.samples, 2 * kItems);
    EXPECT_EQ(probes.scanned, probes.fitChecks);
    EXPECT_GT(probes.fitChecks, 2 * kItems);
  }
}

TEST(TelemetryConcurrency, MoreLiveThreadsThanSlotsStayExact) {
  // 3·kSlots threads hold their slots at once (the barrier keeps every one
  // live until all have claimed), so at most kSlots-1 own a slot and the
  // rest share slot 0. Owned slots are never shared, and the totals are
  // exact across both update paths.
  constexpr std::size_t kLive = 3 * kSlots;
  constexpr std::uint64_t kPer = 5000;
  Registry reg;
  Counter& c = reg.counter("live");
  Histogram& h = reg.histogram("live");
  std::barrier allClaimed(static_cast<std::ptrdiff_t>(kLive));
  std::vector<std::size_t> slots(kLive);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kLive; ++t) {
    threads.emplace_back([&, t] {
      slots[t] = detail::threadSlot();
      allClaimed.arrive_and_wait();
      for (std::uint64_t i = 0; i < kPer; ++i) {
        c.add();
        h.record(t * kPer + i);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::set<std::size_t> owned;
  for (std::size_t slot : slots) {
    ASSERT_LT(slot, kSlots);
    if (slot != 0) {
      EXPECT_TRUE(owned.insert(slot).second) << "slot " << slot;
    }
  }
  EXPECT_GE(static_cast<std::size_t>(std::count(slots.begin(), slots.end(),
                                                std::size_t{0})),
            kLive - (kSlots - 1));
  if constexpr (kEnabled) {
    const std::uint64_t n = kLive * kPer;
    EXPECT_EQ(c.value(), n);
    EXPECT_EQ(h.count(), n);
    EXPECT_EQ(h.sum(), n * (n - 1) / 2);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), n - 1);
    std::uint64_t buckets = 0;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      buckets += h.bucketCount(b);
    }
    EXPECT_EQ(buckets, n);
  }
}

TEST(TelemetryConcurrency, ShortLivedThreadsReuseSlots) {
  // 500 threads, one after another: each returns its slot at exit, so each
  // finds an owned slot free, and the cells its predecessors left behind
  // keep their counts.
  constexpr std::uint64_t kRuns = 500;
  constexpr std::uint64_t kPer = 100;
  Registry reg;
  Counter& c = reg.counter("reuse");
  Histogram& h = reg.histogram("reuse");
  for (std::uint64_t t = 0; t < kRuns; ++t) {
    std::size_t slot = 0;
    std::thread([&] {
      for (std::uint64_t i = 0; i < kPer; ++i) c.add();
      h.record(t);
      slot = detail::threadSlot();
    }).join();
    ASSERT_NE(slot, 0u) << "thread " << t << " found no free slot";
  }
  if constexpr (kEnabled) {
    EXPECT_EQ(c.value(), kRuns * kPer);
    EXPECT_EQ(h.count(), kRuns);
    EXPECT_EQ(h.sum(), kRuns * (kRuns - 1) / 2);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), kRuns - 1);
  }
}

TEST(TelemetryConcurrency, SnapshotsNeverDecreaseWhileWriting) {
  Registry reg;
  Counter& c = reg.counter("mono");
  Histogram& h = reg.histogram("mono");
  constexpr std::uint64_t kWrites = 5 * kIters;
  std::atomic<int> running{kThreads};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kWrites; ++i) {
        c.add();
        h.record(i);
      }
      running.fetch_sub(1, std::memory_order_relaxed);
    });
  }
  std::uint64_t counter = 0;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::size_t snapshots = 0;
  do {
    RegistrySnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.histograms.size(), 1u);
    const HistogramSnapshot& hs = snap.histograms[0].second;
    EXPECT_GE(snap.counter("mono"), counter);
    EXPECT_GE(hs.count, count);
    EXPECT_GE(hs.sum, sum);
    counter = snap.counter("mono");
    count = hs.count;
    sum = hs.sum;
    ++snapshots;
  } while (running.load(std::memory_order_relaxed) > 0);
  for (std::thread& t : writers) t.join();
  EXPECT_GE(snapshots, 1u);
  if constexpr (kEnabled) {
    EXPECT_EQ(c.value(), kThreads * kWrites);
    EXPECT_EQ(h.count(), kThreads * kWrites);
    EXPECT_EQ(h.sum(), kThreads * (kWrites * (kWrites - 1) / 2));
  }
}

TEST(TelemetryConcurrency, ShardedWorkersRecordTheirOwnProbes) {
  // The sharded engine's workers record one scan sample per placement from
  // the kernel's probes, and the samples add up to the fit checks the run
  // issued.
  constexpr std::size_t kItems = 20000;
  WorkloadSpec spec;
  spec.numItems = kItems;
  spec.mu = 8.0;
  const Instance inst(generateWorkload(spec, 3).sortedByArrival());
  PolicyPtr policy = makePolicy("cdt-ff", PolicyContext::forInstance(inst));
  SimOptions options;
  options.engine = PlacementEngine::kSharded;
  options.shardedThreads = 3;
  const RegistrySnapshot before = Registry::global().snapshot();

  const SimResult result = simulateOnline(inst, *policy, options);

  const ProbeDeltas probes =
      probeDeltas(before, Registry::global().snapshot());
  EXPECT_GE(result.binsOpened, 1u);
  if constexpr (kEnabled) {
    EXPECT_EQ(probes.samples, kItems);
    EXPECT_EQ(probes.scanned, probes.fitChecks);
    EXPECT_GT(probes.fitChecks, 0u);
  }
}

}  // namespace
}  // namespace cdbp::telemetry
