// Differential pin of the serve daemon: for every registered policy spec
// and both placement engines, a session driven over a socketpair must be
// BIT-IDENTICAL to simulateStream on the same item sequence — same bin
// for every item, same totalUsage/lb3 doubles, same sim.fit_checks
// telemetry delta. The daemon routes each session through the shared
// StreamEngine, so this suite pins that the protocol layer adds no
// divergence (encoding is bit-exact, ordering is preserved, sessions are
// isolated) — and, since the sharded redesign, that the shard count is
// invisible to results: the 4-loop server below must match the 1-loop
// server and the local engine decision for decision, whether sessions
// are driven by one PLACE round trip per item or by BATCH frames.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <string>
#include <thread>
#include <vector>

#include "online/policy_factory.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/streaming.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/generators.hpp"

namespace cdbp::serve {
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

struct LocalRun {
  StreamResult result;
  std::vector<PlacedFrame> placements;
  std::uint64_t fitChecks = 0;
};

LocalRun runLocal(const std::vector<StreamItem>& items,
                  const std::string& spec, const PolicyContext& context,
                  PlacementEngine engine) {
  PolicyPtr policy = makePolicy(spec, context);
  StreamOptions options;
  options.engine = engine;
  StreamEngine streamEngine(*policy, options);
  LocalRun run;
  std::uint64_t before = fitChecks();
  for (const StreamItem& item : items) {
    StreamEngine::Placement placed = streamEngine.place(item);
    run.placements.push_back(PlacedFrame{placed.item, placed.bin,
                                         placed.openedNewBin ? std::uint8_t{1}
                                                             : std::uint8_t{0},
                                         placed.category});
  }
  run.result = streamEngine.finish();
  run.fitChecks = fitChecks() - before;
  return run;
}

struct ServedRun {
  DrainOkFrame result;
  std::vector<PlacedFrame> placements;
  std::uint64_t fitChecks = 0;
};

/// How a served session pushes its items down the wire.
enum class Driver {
  kLockstep,  ///< one client.place() round trip (standalone PLACE) per item
  kBatch,     ///< explicit Batch builder, one BATCH per burst
};

Client openSession(Server& server, const std::string& spec,
                   const PolicyContext& context, PlacementEngine engine) {
  int fds[2];
  EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  server.adoptConnection(fds[1]);
  Client client(fds[0]);

  HelloFrame hello;
  hello.version = kProtocolVersion;
  hello.engine = engine == PlacementEngine::kLinearScan ? 1 : 0;
  hello.minDuration = context.minDuration;
  hello.mu = context.mu;
  hello.seed = context.seed;
  hello.tenant = spec;
  hello.policySpec = spec;
  client.hello(hello);
  return client;
}

ServedRun runServed(Server& server, const std::vector<StreamItem>& items,
                    const std::string& spec, const PolicyContext& context,
                    PlacementEngine engine, Driver driver) {
  Client client = openSession(server, spec, context, engine);

  ServedRun run;
  std::uint64_t before = fitChecks();
  // Batch bursts exercise many sub-ops per frame; lockstep exercises the
  // standalone PLACE frame path the open-loop clients use.
  constexpr std::size_t kBurst = 64;
  std::size_t i = 0;
  while (i < items.size()) {
    std::size_t end = std::min(i + kBurst, items.size());
    if (driver == Driver::kLockstep) {
      for (std::size_t j = i; j < end; ++j) {
        run.placements.push_back(
            client.place(items[j].size, items[j].arrival, items[j].departure));
      }
    } else {
      Client::Batch batch = client.batch();
      for (std::size_t j = i; j < end; ++j) {
        batch.place(items[j].size, items[j].arrival, items[j].departure);
      }
      BatchOkFrame ok = batch.send();
      EXPECT_EQ(ok.failed, 0);
      EXPECT_EQ(ok.results.size(), end - i);
      for (const BatchResultEntry& entry : ok.results) {
        EXPECT_EQ(entry.kind, kBatchOpPlace);
        run.placements.push_back(entry.placed);
      }
    }
    i = end;
  }
  run.result = client.drain();
  run.fitChecks = fitChecks() - before;
  return run;
}

std::vector<StreamItem> makeWorkload(std::uint64_t seed) {
  // A generated instance, canonicalized to nondecreasing arrivals the
  // same way the streaming differential suite does.
  WorkloadSpec spec;
  spec.numItems = 400;
  spec.mu = 16.0;
  spec.arrivalRate = 24.0;
  Instance inst(generateWorkload(spec, seed).sortedByArrival());
  std::vector<StreamItem> items;
  items.reserve(inst.size());
  for (const Item& item : inst.items()) {
    items.push_back(StreamItem{item.size, item.arrival(), item.departure()});
  }
  return items;
}

void expectBitIdentical(const ServedRun& served, const LocalRun& local) {
  ASSERT_EQ(served.placements.size(), local.placements.size());
  for (std::size_t i = 0; i < local.placements.size(); ++i) {
    ASSERT_EQ(served.placements[i].item, local.placements[i].item)
        << "item " << i;
    ASSERT_EQ(served.placements[i].bin, local.placements[i].bin)
        << "item " << i;
    ASSERT_EQ(served.placements[i].openedNewBin,
              local.placements[i].openedNewBin)
        << "item " << i;
    ASSERT_EQ(served.placements[i].category, local.placements[i].category)
        << "item " << i;
  }
  // Exact doubles: the protocol carries f64 bit patterns, so the
  // aggregates agree to the last bit, not to a tolerance.
  EXPECT_EQ(served.result.items, local.result.items);
  EXPECT_EQ(served.result.totalUsage, local.result.totalUsage);
  EXPECT_EQ(served.result.binsOpened, local.result.binsOpened);
  EXPECT_EQ(served.result.maxOpenBins, local.result.maxOpenBins);
  EXPECT_EQ(served.result.categoriesUsed, local.result.categoriesUsed);
  EXPECT_EQ(served.result.lb3, local.result.lb3);
  EXPECT_EQ(served.result.peakOpenItems, local.result.peakOpenItems);
  if (telemetry::kEnabled) {
    // Same decisions -> same number of fit checks, counted through the
    // shared registry from the server's loop thread. (Valid because the
    // sweeps below run one session at a time.)
    EXPECT_EQ(served.fitChecks, local.fitChecks);
  }
}

/// Every spec × engine through one server, one session at a time.
void sweepAgainstLocal(Server& server, Driver driver) {
  server.start();
  std::vector<StreamItem> items = makeWorkload(20260807);
  PolicyContext context;
  context.minDuration = 1.0;
  context.mu = 16.0;
  context.seed = 7;

  for (PlacementEngine engine :
       {PlacementEngine::kIndexed, PlacementEngine::kLinearScan}) {
    const char* engineName =
        engine == PlacementEngine::kIndexed ? "indexed" : "linear";
    for (const std::string& spec : allSpecs()) {
      SCOPED_TRACE(std::string(engineName) + " / " + spec);
      ServedRun served =
          runServed(server, items, spec, context, engine, driver);
      LocalRun local = runLocal(items, spec, context, engine);
      expectBitIdentical(served, local);
    }
  }
  server.stop();
  server.join();
}

TEST(ServeDifferential, EverySpecAndEngineBitIdenticalToSimulateStream) {
  Server server(ServerOptionsBuilder().loopThreads(1).build());
  sweepAgainstLocal(server, Driver::kLockstep);
}

TEST(ServeDifferential, FourShardServerBitIdenticalToSimulateStream) {
  // The shard count must be invisible to results: sessions are pinned to
  // one loop and share nothing but the tenant table and telemetry, so a
  // 4-loop daemon reproduces the local engine bit for bit too.
  Server server(ServerOptionsBuilder().loopThreads(4).build());
  sweepAgainstLocal(server, Driver::kLockstep);
}

TEST(ServeDifferential, BatchDrivenSessionsBitIdenticalAcrossShards) {
  // Same pin through the Batch builder instead of standalone PLACE
  // frames: sub-op results inside BATCH_OK are the same PLACED mirrors.
  Server server(ServerOptionsBuilder().loopThreads(4).build());
  sweepAgainstLocal(server, Driver::kBatch);
}

TEST(ServeDifferential, ConcurrentTenantsFitCheckTotalsAddUp) {
  if (!telemetry::kEnabled) GTEST_SKIP() << "telemetry compiled out";
  // Four concurrent sessions on four shards, same spec and items each:
  // the shared sim.fit_checks counter must grow by exactly 4x the local
  // single-run delta — shards add telemetry, never lose or double it.
  Server server(ServerOptionsBuilder().loopThreads(4).build());
  server.start();
  std::vector<StreamItem> items = makeWorkload(20260807);
  PolicyContext context;
  context.minDuration = 1.0;
  context.mu = 16.0;
  context.seed = 7;
  LocalRun local =
      runLocal(items, "cdt-ff", context, PlacementEngine::kIndexed);

  std::uint64_t before = fitChecks();
  std::vector<Client> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(
        openSession(server, "cdt-ff", context, PlacementEngine::kIndexed));
  }
  std::vector<std::thread> threads;
  for (Client& client : clients) {
    threads.emplace_back([&client, &items] {
      constexpr std::size_t kBurst = 64;
      std::size_t i = 0;
      while (i < items.size()) {
        std::size_t end = std::min(i + kBurst, items.size());
        Client::Batch batch = client.batch();
        for (std::size_t j = i; j < end; ++j) {
          batch.place(items[j].size, items[j].arrival, items[j].departure);
        }
        EXPECT_EQ(batch.send().failed, 0);
        i = end;
      }
      client.drain();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(fitChecks() - before, 4 * local.fitChecks);
  server.stop();
  server.join();
}

}  // namespace
}  // namespace cdbp::serve
