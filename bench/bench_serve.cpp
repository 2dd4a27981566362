// Placement-as-a-service macro-bench: the serve daemon against the
// in-process StreamEngine on identical workloads, over a socketpair (no
// TCP stack variance). Measures the full server path — framing, epoll
// loop, session dispatch — per placement.
//
// Series (n = items):
//   Local/<policy>/n        StreamEngine in-process (the floor)
//   RoundTrip/<policy>/n    one PLACE request/reply per item (latency mode)
//   Pipelined/<policy>/n    BATCH bursts of 256, replies read per burst
//   Sharded/<policy>/n/t<k> 4 concurrent client threads, each pipelining
//                           the full item set against a k-loop server;
//                           the t<threads>/t1 ratio is the scaling number
//                           perf_guard.py --scaling enforces
//
// The trailing latency table reports round-trip percentiles from the
// RoundTrip series — the numbers stream_replay --connect prints, measured
// under the bench harness.
//
// Flags:
//   --reps N        timed repetitions per benchmark (default 5)
//   --warmup N      untimed warmup passes (default 1)
//   --filter STR    only run benchmarks whose name contains STR
//   --max-items N   skip benchmarks with more than N items (CI perf-smoke)
//   --mu X          duration ratio of the generated workloads (default 16)
//   --seed S        workload seed (default 1)
//   --engine E      placement engine: indexed (default) | linear
//   --threads K     loop threads for the sharded series (default 4)
//   --csv           render the summary table as CSV
//   --json[=PATH]   write BENCH_serve.json (schema: DESIGN.md §8.3)
#include <sys/socket.h>

#include <cstdint>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "online/policy_factory.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/streaming.hpp"
#include "telemetry/bench_report.hpp"
#include "telemetry/clock.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"

namespace cdbp {
namespace {

volatile double g_sink = 0;

constexpr std::size_t kBurst = 256;

/// Concurrent client threads driving each Sharded series.
constexpr std::size_t kShardedClients = 4;

struct Spec {
  std::string name;
  std::size_t items;
  std::function<void()> body;
};

serve::Client openSession(serve::Server& server, const std::string& policySpec,
                          const PolicyContext& context, PlacementEngine engine,
                          const std::string& tenant) {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("bench_serve: socketpair failed");
  }
  server.adoptConnection(fds[1]);
  serve::Client client(fds[0]);
  serve::HelloFrame hello;
  hello.engine = engine == PlacementEngine::kLinearScan ? 1 : 0;
  hello.minDuration = context.minDuration;
  hello.mu = context.mu;
  hello.seed = context.seed;
  hello.tenant = tenant;
  hello.policySpec = policySpec;
  client.hello(hello);
  return client;
}

/// One pipelined pass over the full item set: queue in bursts, flush,
/// read the burst's replies, drain at the end.
void runPipelined(serve::Client& client,
                  const std::vector<StreamItem>& items) {
  std::size_t i = 0;
  while (i < items.size()) {
    std::size_t end = std::min(i + kBurst, items.size());
    for (std::size_t j = i; j < end; ++j) {
      const StreamItem& item = items[j];
      client.queuePlace(item.size, item.arrival, item.departure);
    }
    client.flushQueued();
    while (client.queued() > 0) client.readPlaced();
    i = end;
  }
  g_sink = client.drain().totalUsage;
}

}  // namespace
}  // namespace cdbp

int main(int argc, char** argv) {
  using namespace cdbp;
  Flags flags = Flags::strictOrDie(
      argc, argv, {"reps", "warmup", "filter", "max-items", "mu", "seed",
                   "engine", "threads", "csv", "json"});
  std::size_t reps = static_cast<std::size_t>(flags.getInt("reps", 5));
  std::size_t warmup = static_cast<std::size_t>(flags.getInt("warmup", 1));
  std::string filter = flags.getString("filter", "");
  long maxItems = flags.getInt("max-items", 0);  // 0 = no limit
  double mu = flags.getDouble("mu", 16.0);
  std::uint64_t seed = static_cast<std::uint64_t>(flags.getInt("seed", 1));
  std::string engineName = flags.getString("engine", "indexed");
  unsigned threads = static_cast<unsigned>(flags.getInt("threads", 4));
  PlacementEngine engine;
  if (engineName == "indexed") {
    engine = PlacementEngine::kIndexed;
  } else if (engineName == "linear") {
    engine = PlacementEngine::kLinearScan;
  } else {
    std::cerr << "bench_serve: --engine must be 'indexed' or 'linear', got '"
              << engineName << "'\n";
    return 1;
  }
  if (threads == 0) {
    std::cerr << "bench_serve: --threads must be >= 1\n";
    return 1;
  }

  // Single-loop server for the per-series floor (Local/RoundTrip/
  // Pipelined measure the protocol path, not parallelism), plus one
  // k-loop server per sharded series point.
  serve::Server server{
      serve::ServerOptionsBuilder().loopThreads(1).build()};
  server.start();
  std::vector<unsigned> shardPoints = {1};
  if (threads > 1) shardPoints.push_back(threads);
  std::map<unsigned, std::unique_ptr<serve::Server>> shardServers;
  for (unsigned k : shardPoints) {
    auto s = std::make_unique<serve::Server>(
        serve::ServerOptionsBuilder().loopThreads(k).build());
    s->start();
    shardServers.emplace(k, std::move(s));
  }

  // Round-trip latency samples per RoundTrip benchmark (microseconds),
  // accumulated across every timed rep; warmup samples are dropped.
  std::map<std::string, SummaryStats> latencies;

  std::vector<Spec> specs;
  const std::vector<std::size_t> allSizes = {20000, 100000};
  for (std::size_t n : allSizes) {
    if (maxItems > 0 && n > static_cast<std::size_t>(maxItems)) continue;
    WorkloadSpec w;
    w.numItems = n;
    w.mu = mu;
    Instance inst(generateWorkload(w, seed).sortedByArrival());
    PolicyContext context = PolicyContext::forInstance(inst, seed);
    auto items = std::make_shared<std::vector<StreamItem>>();
    items->reserve(inst.size());
    for (const Item& item : inst.items()) {
      items->push_back(
          StreamItem{item.size, item.arrival(), item.departure()});
    }

    for (const char* policySpec : {"ff", "cdt-ff"}) {
      std::string tag = std::string(policySpec) + "/" + std::to_string(n);
      std::string spec(policySpec);

      specs.push_back({"Local/" + tag, n, [items, spec, context, engine] {
                         PolicyPtr policy = makePolicy(spec, context);
                         StreamOptions options;
                         options.engine = engine;
                         StreamEngine streamEngine(*policy, options);
                         for (const StreamItem& item : *items) {
                           streamEngine.place(item);
                         }
                         g_sink = streamEngine.finish().totalUsage;
                       }});

      std::string rtName = "RoundTrip/" + tag;
      specs.push_back(
          {rtName, n, [items, spec, context, engine, rtName, &server,
                       &latencies] {
             serve::Client client =
                 openSession(server, spec, context, engine, "bench");
             SummaryStats& stats = latencies[rtName];
             for (const StreamItem& item : *items) {
               std::uint64_t t0 = telemetry::monotonicNanos();
               client.place(item.size, item.arrival, item.departure);
               stats.add(static_cast<double>(telemetry::monotonicNanos() -
                                             t0) /
                         1e3);
             }
             g_sink = client.drain().totalUsage;
           }});

      specs.push_back(
          {"Pipelined/" + tag, n, [items, spec, context, engine, &server] {
             serve::Client client =
                 openSession(server, spec, context, engine, "bench");
             runPipelined(client, *items);
           }});

      // Sharded: kShardedClients threads each pipeline the full item set
      // through their own session against a k-loop server. Total work is
      // kShardedClients * n placements; sessions spread round-robin over
      // the loops, so t<threads> vs t1 measures loop-thread scaling on
      // identical byte streams.
      for (unsigned k : shardPoints) {
        serve::Server* sharded = shardServers.at(k).get();
        specs.push_back(
            {"Sharded/" + tag + "/t" + std::to_string(k),
             kShardedClients * n, [items, spec, context, engine, sharded] {
               std::vector<std::thread> workers;
               std::vector<std::exception_ptr> failures(kShardedClients);
               for (std::size_t c = 0; c < kShardedClients; ++c) {
                 workers.emplace_back([&, c] {
                   try {
                     serve::Client client = openSession(
                         *sharded, spec, context, engine,
                         "bench-c" + std::to_string(c));
                     runPipelined(client, *items);
                   } catch (...) {
                     failures[c] = std::current_exception();
                   }
                 });
               }
               for (std::thread& worker : workers) worker.join();
               for (const std::exception_ptr& failure : failures) {
                 if (failure) std::rethrow_exception(failure);
               }
             }});
      }
    }
  }

  telemetry::BenchReport report("serve");
  report.setParam("reps", reps);
  report.setParam("warmup", warmup);
  report.setParam("mu", mu);
  report.setParam("seed", static_cast<long>(seed));
  report.setParam("max_items", maxItems);
  report.setParam("filter", filter);
  report.setParam("engine", engineName);
  report.setParam("threads", static_cast<long>(threads));

  Table table({"benchmark", "items", "mean ms", "stddev ms", "items/s"});
  std::size_t ran = 0;
  for (const Spec& spec : specs) {
    if (!filter.empty() && spec.name.find(filter) == std::string::npos) {
      continue;
    }
    ++ran;
    for (std::size_t w = 0; w < warmup; ++w) spec.body();
    // RoundTrip bodies record a latency per item; keep only the timed reps'.
    latencies.erase(spec.name);
    telemetry::RegistrySnapshot before =
        telemetry::Registry::global().snapshot();
    telemetry::BenchTimingSeries& series =
        report.addTiming(spec.name, spec.items);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      std::uint64_t t0 = telemetry::monotonicNanos();
      spec.body();
      std::uint64_t t1 = telemetry::monotonicNanos();
      series.addRepSeconds(static_cast<double>(t1 - t0) * 1e-9);
    }
    telemetry::RegistrySnapshot after =
        telemetry::Registry::global().snapshot();
    series.setCounterDeltas(telemetry::diffCounters(before, after));

    table.addRow({spec.name, std::to_string(spec.items),
                  Table::num(series.seconds().mean() * 1e3, 3),
                  Table::num(series.seconds().stddev() * 1e3, 3),
                  Table::num(series.itemsPerSecond(), 0)});
  }

  std::cout << "=== serve (" << reps << " reps, warmup " << warmup << ", mu "
            << mu << ", engine " << engineName << ", threads " << threads
            << ", telemetry " << (telemetry::kEnabled ? "on" : "off")
            << ") ===\n";
  if (flags.has("csv")) {
    table.printCsv(std::cout);
  } else {
    table.print(std::cout);
  }

  // Per-placement round-trip latency through the full server path.
  Table latency({"benchmark", "samples", "p50 us", "p90 us", "p99 us",
                 "max us"});
  for (const auto& [name, stats] : latencies) {
    latency.addRow({name, std::to_string(stats.count()),
                    Table::num(stats.percentile(50.0), 2),
                    Table::num(stats.percentile(90.0), 2),
                    Table::num(stats.percentile(99.0), 2),
                    Table::num(stats.max(), 2)});
  }
  if (!latencies.empty()) {
    std::cout << "--- round-trip latency ---\n";
    if (flags.has("csv")) {
      latency.printCsv(std::cout);
    } else {
      latency.print(std::cout);
    }
    report.addTable("latency", latency);
  }

  server.stop();
  server.join();
  for (auto& [k, sharded] : shardServers) {
    sharded->stop();
    sharded->join();
  }

  if (ran == 0) {
    std::cerr << "bench_serve: no benchmark matched --filter/--max-items\n";
    return 1;
  }
  report.writeIfRequested(flags, std::cout);
  return 0;
}
