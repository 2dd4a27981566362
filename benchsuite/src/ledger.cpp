// The layer ledger of a traced run: the workload's own input pushed through
// each layer on its own (trace parsing, the stream engine call by call, the
// batch simulator, the bin-search index, the sharded engine, the wire
// protocol and the daemon), each timed from outside through the layer's
// public functions or read from registry counter deltas around them.
#include <algorithm>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "bench.hpp"
#include "core/instance.hpp"
#include "online/policy_factory.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve_io.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "sim/streaming.hpp"
#include "telemetry/registry.hpp"
#include "workload/trace_io.hpp"

namespace bench {

namespace {

namespace sv = cdbp::serve;

constexpr std::size_t kLinearPrefix = 100'000;
constexpr std::size_t kProtocolItems = 200'000;
constexpr std::size_t kServeSessions = 3;
constexpr std::size_t kServeSessionItems = 10'000;
constexpr std::size_t kRoundTrips = 2'000;
constexpr std::size_t kServeBatch = 256;

cdbp::StreamItem streamItem(const cdbp::Item& r) {
  return cdbp::StreamItem{r.size, r.arrival(), r.departure()};
}

sv::Client connectWhenReady(const std::string& path, Daemon& daemon) {
  std::uint64_t deadline = nowNs() + 20'000'000'000ull;
  while (true) {
    try {
      return sv::Client::connectUnix(path);
    } catch (const std::system_error&) {
      if (nowNs() > deadline || !daemon.running()) throw;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

}  // namespace

void runLedger(const Options& options, const std::vector<cdbp::Item>& items,
               RunResult& out, Tracer& tracer, int parent) {
  const WorkloadParams& params = workloadParams(options.workload);
  const double n = static_cast<double>(items.size());
  const cdbp::Instance instance(items);
  const cdbp::PolicyContext context = cdbp::PolicyContext::forInstance(instance);
  auto policy = [&] { return cdbp::makePolicy(params.policy, context); };
  auto timed = [&](const char* name, const auto& body) {
    int span = tracer.begin(name, parent);
    std::uint64_t t0 = nowNs();
    body();
    double seconds = secondsBetween(t0, nowNs());
    tracer.end(span);
    return seconds;
  };

  // Trace parsing: a profile scan, a parse-only pull, and a full file replay.
  double scanS = timed("trace_io.scan", [&] { cdbp::scanTrace(options.input); });
  double nextS = timed("trace_io.next", [&] {
    cdbp::TraceArrivalSource source(options.input);
    cdbp::StreamItem item;
    while (source.next(item)) {
    }
  });
  cdbp::PolicyPtr replayPolicy = policy();
  double replayS = timed("trace_io.replay", [&] {
    cdbp::TraceArrivalSource source(options.input);
    cdbp::simulateStream(source, *replayPolicy);
  });
  out.metric("trace_io.scan_ns_per_item", scanS / n * 1e9, "ns");
  out.metric("trace_io.next_ns_per_item", nextS / n * 1e9, "ns");
  out.metric("trace_io.share", nextS / replayS, "ratio");

  // The stream engine over the same items in memory, whole-call and per call.
  cdbp::InstanceArrivalSource source(instance);
  cdbp::PolicyPtr streamPolicy = policy();
  cdbp::telemetry::Registry& registry = cdbp::telemetry::Registry::global();
  cdbp::telemetry::RegistrySnapshot before = registry.snapshot();
  cdbp::StreamResult stream;
  double streamS = timed("stream.run", [&] {
    stream = cdbp::simulateStream(source, *streamPolicy);
  });
  cdbp::telemetry::RegistrySnapshot after = registry.snapshot();
  double fitChecks = static_cast<double>(after.counter("sim.fit_checks") -
                                         before.counter("sim.fit_checks"));

  std::vector<std::uint32_t> placeNs;
  placeNs.reserve(items.size());
  TimedPolicy decide(policy(), true);
  double finishS = 0;
  cdbp::StreamResult perCall;
  timed("stream.per_call", [&] {
    cdbp::StreamEngine engine(decide);
    for (const cdbp::Item& r : items) {
      std::uint64_t t0 = nowNs();
      engine.place(streamItem(r));
      placeNs.push_back(clipNs(nowNs() - t0));
    }
    std::uint64_t t0 = nowNs();
    perCall = engine.finish();
    finishS = secondsBetween(t0, nowNs());
  });
  Percentiles place = summarize(placeNs, 1.0);
  Percentiles decision = summarize(decide.log().durations, 1.0);
  out.metric("stream.ns_per_item", streamS / n * 1e9, "ns");
  out.metric("stream.place_ns.p50", place.p50, "ns");
  out.metric("stream.place_ns.p99", place.tail, "ns");
  out.metric("stream.finish_ms", finishS * 1e3, "ms");
  out.metric("stream.peak_resident_kb",
             static_cast<double>(perCall.peakResidentBytes) / 1024.0, "KiB");
  out.metric("policy.decide_ns.p50", decision.p50, "ns");
  out.metric("policy.decide_ns.p99", decision.tail, "ns");
  out.metric("policy.categories_used", static_cast<double>(stream.categoriesUsed), "count");
  out.check(perCall.totalUsage == stream.totalUsage,
            options.workload + ": per-call StreamEngine differs from simulateStream");

  // The batch simulator, and its arrival sort on its own.
  double sortS = timed("simulator.sort", [&] { (void)instance.sortedByArrival(); });
  cdbp::PolicyPtr batchPolicy = policy();
  cdbp::SimResult batch;
  double simS = timed("simulator.run", [&] {
    batch = cdbp::simulateOnline(instance, *batchPolicy);
  });
  out.check(batch.totalUsage == stream.totalUsage,
            options.workload + ": simulateOnline differs from simulateStream");
  batch = cdbp::SimResult{};
  out.metric("simulator.ns_per_item", simS / n * 1e9, "ns");
  out.metric("simulator.over_stream", simS / streamS, "ratio");
  out.metric("simulator.sort_ms", sortS * 1e3, "ms");

  // The bin-search index: probe counts, and the linear scan it replaces.
  std::size_t prefix = std::min(items.size(), kLinearPrefix);
  cdbp::Instance head(std::vector<cdbp::Item>(items.begin(), items.begin() +
                                                                 static_cast<std::ptrdiff_t>(prefix)));
  auto engineSeconds = [&](cdbp::PlacementEngine engine, const char* name) {
    cdbp::InstanceArrivalSource headSource(head);
    cdbp::PolicyPtr p = policy();
    cdbp::StreamOptions streamOptions;
    streamOptions.engine = engine;
    return timed(name, [&] { cdbp::simulateStream(headSource, *p, streamOptions); });
  };
  double linearS = engineSeconds(cdbp::PlacementEngine::kLinearScan, "index.linear");
  double indexedS = engineSeconds(cdbp::PlacementEngine::kIndexed, "index.indexed");
  double existing = n - static_cast<double>(stream.binsOpened);
  out.metric("index.fit_checks_per_item", fitChecks / n, "count");
  out.metric("index.hit_ratio", fitChecks > 0 ? existing / fitChecks : 0.0, "ratio");
  out.metric("index.max_open_bins", static_cast<double>(stream.maxOpenBins), "count");
  out.metric("index.bins_opened", static_cast<double>(stream.binsOpened), "count");
  out.metric("index.linear_over_indexed", linearS / indexedS, "ratio");

  // The sharded engine at one worker and at the workload's worker count.
  struct Sharded {
    double feedS = 0;
    double finishS = 0;
    cdbp::ShardedResult result;
  };
  auto sharded = [&](std::size_t threads, const char* name) {
    Sharded s;
    cdbp::PolicyPtr p = policy();
    cdbp::ShardedOptions shardedOptions;
    shardedOptions.threads = threads;
    shardedOptions.computeLowerBound = true;
    int span = tracer.begin(name, parent);
    cdbp::ShardedSimulator simulator(*p, shardedOptions);
    std::uint64_t t0 = nowNs();
    for (const cdbp::Item& r : instance.items()) simulator.feed(r);
    std::uint64_t t1 = nowNs();
    s.result = simulator.finish();
    std::uint64_t t2 = nowNs();
    tracer.record("feed", t0, t1, span);
    tracer.record("finish", t1, t2, span);
    tracer.end(span);
    s.feedS = secondsBetween(t0, t1);
    s.finishS = secondsBetween(t1, t2);
    return s;
  };
  Sharded one = sharded(1, "sharded.t1");
  Sharded many = sharded(shardedWorkers(), "sharded.tK");
  out.check(one.result.totalUsage == stream.totalUsage &&
                many.result.totalUsage == stream.totalUsage,
            options.workload + ": ShardedSimulator differs from simulateStream");
  out.metric("sharded.feed_ns_per_item", many.feedS / n * 1e9, "ns");
  out.metric("sharded.finish_ms", many.finishS * 1e3, "ms");
  out.metric("sharded.shards", static_cast<double>(many.result.shards), "count");
  out.metric("sharded.epochs", static_cast<double>(many.result.epochs), "count");
  out.metric("sharded.t1_over_stream", (one.feedS + one.finishS) / streamS, "ratio");
  out.metric("sharded.speedup",
             (one.feedS + one.finishS) / (many.feedS + many.finishS), "ratio");

  // The wire protocol: BATCH requests and BATCH_OK replies for the items.
  std::size_t wireItems = std::min(items.size(), kProtocolItems);
  std::vector<std::uint8_t> requests;
  std::vector<std::uint8_t> replies;
  double encodeS = timed("protocol.encode", [&] {
    sv::BatchFrame frame;
    sv::BatchOkFrame ok;
    for (std::size_t i = 0; i < wireItems; i += sv::kMaxBatchOps) {
      std::size_t k = std::min(sv::kMaxBatchOps, wireItems - i);
      frame.ops.resize(k);
      ok.results.resize(k);
      for (std::size_t j = 0; j < k; ++j) {
        const cdbp::Item& r = items[i + j];
        frame.ops[j].kind = sv::kBatchOpPlace;
        frame.ops[j].place = sv::PlaceFrame{r.size, r.arrival(), r.departure()};
        ok.results[j].kind = sv::kBatchOpPlace;
        ok.results[j].placed = sv::PlacedFrame{static_cast<std::uint32_t>(i + j),
                                               static_cast<std::int32_t>(j), 0, 0};
      }
      sv::appendBatch(requests, frame);
      sv::appendBatchOk(replies, ok);
    }
  });
  std::size_t decodedOps = 0;
  double decodeS = timed("protocol.decode", [&] {
    sv::BatchFrame frame;
    sv::BatchOkFrame ok;
    for (auto* buffer : {&requests, &replies}) {
      std::size_t at = 0;
      sv::FrameView view;
      std::size_t consumed = 0;
      while (sv::extractFrame(buffer->data() + at, buffer->size() - at, 1u << 20, view,
                              consumed) == sv::ExtractStatus::kFrame) {
        at += consumed;
        if (buffer == &requests && sv::decodeBatch(view, frame)) decodedOps += frame.ops.size();
        if (buffer == &replies && sv::decodeBatchOk(view, ok)) decodedOps += ok.results.size();
      }
    }
  });
  out.check(decodedOps == 2 * wireItems,
            options.workload + ": protocol round trip lost operations");
  out.metric("protocol.encode_ns_per_op", encodeS / static_cast<double>(wireItems) * 1e9, "ns");
  out.metric("protocol.decode_ns_per_op", decodeS / static_cast<double>(wireItems) * 1e9, "ns");

  // The daemon, closed loop: sessions of pipelined BATCHes, then one
  // session of single PLACE round trips, with SCRAPEs around them.
  int serveSpan = tracer.begin("serve", parent);
  Daemon daemon(options.served, "ledger.sock", 2, "ledger-daemon.log");
  sv::Client scraper = connectWhenReady("ledger.sock", daemon);
  std::uint64_t t0 = nowNs();
  std::string first = scraper.scrape();
  double scrapeUs = secondsBetween(t0, nowNs()) * 1e6;
  sv::HelloFrame hello;
  hello.minDuration = context.minDuration;
  hello.mu = context.mu;
  hello.seed = context.seed;
  hello.tenant = "ledger";
  hello.policySpec = params.policy;
  std::size_t perSession = std::min(kServeSessionItems, items.size() / (kServeSessions + 1));
  std::vector<double> helloUs;
  std::vector<double> drainUs;
  double batchS = 0;
  std::uint64_t rssAfterFirst = 0;
  std::size_t sent = 0;
  for (std::size_t s = 0; s < kServeSessions; ++s) {
    sv::Client client = sv::Client::connectUnix("ledger.sock");
    t0 = nowNs();
    client.hello(hello);
    helloUs.push_back(secondsBetween(t0, nowNs()) * 1e6);
    t0 = nowNs();
    for (std::size_t i = 0; i < perSession; i += kServeBatch) {
      sv::Client::Batch b = client.batch();
      for (std::size_t j = i; j < std::min(perSession, i + kServeBatch); ++j) {
        const cdbp::Item& r = items[s * perSession + j];
        b.place(r.size, r.arrival(), r.departure());
      }
      sv::BatchOkFrame ok = b.send();
      out.check(ok.failed == 0, options.workload + ": ledger BATCH failed: " + ok.errorMessage);
    }
    batchS += secondsBetween(t0, nowNs());
    t0 = nowNs();
    client.drain();
    drainUs.push_back(secondsBetween(t0, nowNs()) * 1e6);
    sent += perSession;
    if (s == 0) rssAfterFirst = procStatusKb(daemon.pid(), "VmRSS");
  }
  std::vector<std::uint32_t> roundTripNs;
  {
    sv::Client client = sv::Client::connectUnix("ledger.sock");
    client.hello(hello);
    std::size_t base = kServeSessions * perSession;
    std::size_t count = std::min(kRoundTrips, items.size() - base);
    for (std::size_t i = 0; i < count; ++i) {
      const cdbp::Item& r = items[base + i];
      t0 = nowNs();
      client.place(r.size, r.arrival(), r.departure());
      roundTripNs.push_back(clipNs(nowNs() - t0));
    }
    client.drain();
    sent += count;
  }
  std::string last = scraper.scrape();
  double rssGrowthKb = static_cast<double>(procStatusKb(daemon.pid(), "VmRSS")) -
                       static_cast<double>(rssAfterFirst);
  double frames = static_cast<double>(scrapeCounter(last, "serve.frames_rx") -
                                      scrapeCounter(first, "serve.frames_rx"));
  out.check(daemon.stop(), options.workload + ": ledger daemon did not exit cleanly");
  tracer.end(serveSpan);

  Percentiles roundTrip = summarize(roundTripNs);
  out.metric("serve.hello_us", median(helloUs), "us");
  out.metric("serve.drain_us", median(drainUs), "us");
  out.metric("serve.scrape_us", scrapeUs, "us");
  out.metric("serve.scrape_bytes.start", static_cast<double>(first.size()), "bytes");
  out.metric("serve.scrape_bytes.end", static_cast<double>(last.size()), "bytes");
  out.metric("serve.frames_rx_per_item", frames / static_cast<double>(sent), "count");
  out.metric("serve.daemon_rss_growth_kb", rssGrowthKb, "KiB");
  out.metric("serve.roundtrip_us.p50", roundTrip.p50, "us");
  out.metric("serve.roundtrip_us.p99", roundTrip.tail, "us");
  out.metric("serve.batch_ns_per_item",
             batchS / static_cast<double>(kServeSessions * perSession) * 1e9, "ns");
}

}  // namespace bench
