// Trace replay: pull a cdbp-trace file through the bounded-memory stream
// engine (sim/streaming.hpp) without ever holding the whole workload in
// RAM — and a demonstration that the stream reproduces the batch
// simulator's numbers exactly (DESIGN.md §11).
//
// With no --trace flag the example exports a demo trace first, so it runs
// out of the box:
//
//   ./stream_replay                                   # demo trace, First Fit
//   ./stream_replay --trace big.jsonl --policy cdt --decisions d.csv
//   ./stream_replay --trace big.jsonl --engine linear --chrome-trace t.json
//
// --decisions writes one CSV row per placement as it is made (the
// DecisionTrace::writeCsv columns), so the replay stays bounded-memory;
// its item,bin columns are the packing. The timeline's open_bins counter
// series is the open-server profile.
//
// With --connect the same replay becomes a load generator for the
// cdbp_served daemon (DESIGN.md §13): every item travels as a PLACE frame
// over the socket, the final DRAIN_OK carries the StreamResult — still
// bit-identical to the local run — and the end-to-end placement latency
// is summarized as percentiles:
//
//   ./cdbp_served --unix cdbp.sock &
//   ./stream_replay --connect unix:cdbp.sock --policy cdt --tenant demo
//
// Flags: --trace <path> (.csv or .jsonl), --policy <spec> (any makePolicy
//        spec; default ff), --engine indexed|linear, --no-lb (skip the
//        incremental lower bound), --decisions <path>,
//        --chrome-trace <path>, --connect unix:<path>|tcp:<host>:<port>,
//        --tenant <name>.
//
// Clairvoyant specs (cdt, cd, ...) need the workload's minimum duration
// and duration ratio mu; a one-pass scanTrace pre-pass supplies them, so
// even the policy context is derived without materializing the trace.
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "online/policy_factory.hpp"
#include "serve/client.hpp"
#include "sim/streaming.hpp"
#include "sim/trace.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/clock.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "workload/generators.hpp"
#include "workload/trace_io.hpp"

namespace {

// Replays the trace against a running daemon, one PLACE round trip per
// item, and reports the served StreamResult plus latency percentiles.
int replayOverSocket(const std::string& connectSpec,
                     const std::string& tenant, const std::string& tracePath,
                     const std::string& policySpec,
                     const cdbp::PolicyContext& context,
                     std::uint8_t engineCode) {
  using namespace cdbp;
  using namespace cdbp::serve;

  Address address;
  std::string addressError;
  if (!parseAddress(connectSpec, address, addressError)) {
    std::cerr << "bad --connect '" << connectSpec << "': " << addressError
              << '\n';
    return 2;
  }
  Client client = Client::connect(address);

  HelloFrame hello;
  hello.engine = engineCode;
  hello.minDuration = context.minDuration;
  hello.mu = context.mu;
  hello.seed = context.seed;
  hello.tenant = tenant;
  hello.policySpec = policySpec;
  HelloOkFrame ok = client.hello(hello);
  std::cout << "connected to " << connectSpec << " as tenant #" << ok.tenantId
            << " (" << tenant << "), policy " << ok.policyName << '\n';

  TraceArrivalSource source(tracePath);
  SummaryStats latencyUs;
  StreamItem item;
  while (source.next(item)) {
    std::uint64_t start = telemetry::monotonicNanos();
    client.place(item.size, item.arrival, item.departure);
    std::uint64_t elapsed = telemetry::monotonicNanos() - start;
    latencyUs.add(static_cast<double>(elapsed) / 1e3);
  }
  DrainOkFrame result = client.drain();

  std::cout << "served: " << result.items << " placements, usage "
            << result.totalUsage;
  if (result.lb3 > 0) {
    std::cout << " (vs LB3 " << result.lb3 << " -> ratio "
              << result.totalUsage / result.lb3 << ")";
  }
  std::cout << '\n';
  std::cout << "servers: " << result.binsOpened << " opened, peak "
            << result.maxOpenBins << ", categories " << result.categoriesUsed
            << '\n';
  std::cout << "latency (us): p50 " << latencyUs.percentile(50.0) << ", p90 "
            << latencyUs.percentile(90.0) << ", p99 "
            << latencyUs.percentile(99.0) << ", max " << latencyUs.max()
            << " over " << latencyUs.count() << " round trips\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cdbp;
  Flags flags = Flags::strictOrDie(
      argc, argv, {"trace", "policy", "engine", "no-lb", "decisions",
                   "chrome-trace", "connect", "tenant"});

  std::string tracePath = flags.getString("trace", "");
  try {
    if (tracePath.empty()) {
      WorkloadSpec spec;
      spec.numItems = 2000;
      spec.mu = 24.0;
      tracePath = "demo_stream_trace.jsonl";
      saveTrace(generateWorkload(spec, 123), tracePath, "stream_replay demo");
      std::cout << "(no --trace given: wrote demo trace to " << tracePath
                << ")\n";
    }

    // Pre-pass: O(1)-memory scan for the clairvoyant context knobs.
    TraceStats stats = scanTrace(tracePath);
    PolicyContext context;
    context.minDuration = stats.minDuration;
    context.mu = stats.mu;

    std::string policySpec = flags.getString("policy", "ff");
    PolicyPtr policy;
    try {
      policy = makePolicy(policySpec, context);
    } catch (const std::exception& e) {
      std::cerr << "bad --policy '" << policySpec << "': " << e.what() << '\n';
      return 1;
    }

    StreamOptions options;
    std::string engine = flags.getString("engine", "indexed");
    if (engine == "indexed") {
      options.engine = PlacementEngine::kIndexed;
    } else if (engine == "linear") {
      options.engine = PlacementEngine::kLinearScan;
    } else {
      std::cerr << "bad --engine '" << engine << "' (indexed|linear)\n";
      return 2;
    }
    std::string connectSpec = flags.getString("connect", "");
    if (!connectSpec.empty()) {
      return replayOverSocket(
          connectSpec, flags.getString("tenant", "stream-replay"), tracePath,
          policySpec, context,
          options.engine == PlacementEngine::kLinearScan ? std::uint8_t{1}
                                                         : std::uint8_t{0});
    }

    options.computeLowerBound = !flags.getBool("no-lb", false);
    telemetry::ChromeTrace chromeTrace;
    std::string chromeTracePath = flags.getString("chrome-trace", "");
    if (!chromeTracePath.empty()) options.chromeTrace = &chromeTrace;

    std::ofstream decisions;
    std::string decisionsPath = flags.getString("decisions", "");
    if (!decisionsPath.empty()) {
      decisions.open(decisionsPath);
      if (!decisions) throw std::runtime_error("cannot write " + decisionsPath);
      DecisionTrace::writeCsvHeader(decisions);
    }

    TraceArrivalSource source(tracePath);
    StreamEngine replay(*policy, options);
    std::size_t newBins = 0;
    double openBinsSeen = 0;
    StreamItem item;
    while (source.next(item)) {
      const StreamEngine::Placement placed = replay.place(item);
      if (placed.openedNewBin) ++newBins;
      openBinsSeen += static_cast<double>(placed.openBins);
      if (decisions.is_open()) DecisionTrace::writeCsvRow(decisions, placed);
    }
    StreamResult result = replay.finish();

    std::cout << "trace: " << result.items << " jobs from " << tracePath
              << " (mu " << stats.mu << ", demand " << stats.demand << ")\n";
    std::cout << "policy " << policy->name() << ": usage " << result.totalUsage;
    if (options.computeLowerBound && result.lb3 > 0) {
      std::cout << " (vs LB3 " << result.lb3 << " -> ratio "
                << result.totalUsage / result.lb3 << ")";
    }
    std::cout << '\n';
    std::cout << "servers: " << result.binsOpened << " opened, peak "
              << result.maxOpenBins << ", categories " << result.categoriesUsed
              << '\n';
    std::cout << "memory: peak " << result.peakOpenItems
              << " open items of " << result.items << " total, ~"
              << result.peakResidentBytes / 1024 << " KiB simulator state\n";
    if (result.items > 0) {
      const double items = static_cast<double>(result.items);
      std::cout << "decisions: new-bin rate "
                << static_cast<double>(newBins) / items
                << ", mean open bins at decision " << openBinsSeen / items
                << '\n';
    }
    if (decisions.is_open()) {
      std::cout << "decision trace written to " << decisionsPath << '\n';
    }

    if (!chromeTracePath.empty()) {
      std::ofstream out(chromeTracePath);
      chromeTrace.write(out);
      std::cout << "timeline written to " << chromeTracePath
                << " (open in chrome://tracing or ui.perfetto.dev)\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "stream_replay: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
