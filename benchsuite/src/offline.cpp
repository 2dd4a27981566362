// The three offline workloads: replay-csv (file replay through the stream
// engine), dense-batch (the batch simulator) and sharded-dense (the
// epoch-sharded engine). Each times one call of the user-facing API per
// repetition and checks its result against an independent engine path.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"
#include "core/instance.hpp"
#include "online/policy_factory.hpp"
#include "sim/simulator.hpp"
#include "sim/streaming.hpp"
#include "workload/trace_io.hpp"

namespace bench {

namespace {

using cdbp::StreamResult;

/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 9;

struct Rep {
  double seconds = 0;
  StreamResult result;
  std::vector<std::uint32_t> windowNs;  ///< service time per kWindowCalls items
  std::string callsJson;                 ///< traced reps: per-call summaries
};

std::string describe(const StreamResult& r) {
  return "items " + std::to_string(r.items) + ", usage " + jsonNumber(r.totalUsage) +
         ", bins " + std::to_string(r.binsOpened) + ", max open " +
         std::to_string(r.maxOpenBins) + ", categories " +
         std::to_string(r.categoriesUsed) + ", lb3 " + jsonNumber(r.lb3);
}

/// Field-for-field equality; doubles compare bitwise.
bool sameResult(const StreamResult& a, const StreamResult& b, bool compareLb3) {
  return a.items == b.items && a.totalUsage == b.totalUsage &&
         a.binsOpened == b.binsOpened && a.maxOpenBins == b.maxOpenBins &&
         a.categoriesUsed == b.categoriesUsed && (!compareLb3 || a.lb3 == b.lb3);
}

void checkSame(RunResult& out, const std::string& what, const StreamResult& got,
               const StreamResult& want, bool compareLb3) {
  out.check(sameResult(got, want, compareLb3),
            what + ": got {" + describe(got) + "}, reference {" + describe(want) +
                "}");
}

StreamResult fromSim(const cdbp::SimResult& r, std::size_t items) {
  StreamResult out;
  out.items = items;
  out.totalUsage = r.totalUsage;
  out.binsOpened = r.binsOpened;
  out.maxOpenBins = r.maxOpenBins;
  out.categoriesUsed = r.categoriesUsed;
  return out;
}

StreamResult streamReference(const cdbp::Instance& instance,
                             const std::string& spec,
                             const cdbp::PolicyContext& context) {
  cdbp::PolicyPtr policy = cdbp::makePolicy(spec, context);
  cdbp::InstanceArrivalSource source(instance);
  return cdbp::simulateStream(source, *policy);
}

class Workload {
 public:
  explicit Workload(const Options& options)
      : options_(options), params_(workloadParams(options.workload)) {}
  virtual ~Workload() = default;

  /// Loads the input into the form the timed call takes and builds the
  /// policy: what a user does before the call, timed as setup_s.
  virtual void setup() = 0;
  /// One call of the user-facing API.
  virtual Rep rep(bool traced, Tracer& tracer, int parent) = 0;
  /// Compares `timed` against an independent engine path; returns the
  /// Proposition 3 bound the usage ratio divides by.
  virtual double check(const std::vector<cdbp::Item>& items,
                       const StreamResult& timed, RunResult& out) = 0;

 protected:
  const Options& options_;
  const WorkloadParams& params_;
  cdbp::PolicyContext context_;
  std::unique_ptr<TimedPolicy> policy_;

  void makePolicy() {
    policy_ = std::make_unique<TimedPolicy>(
        cdbp::makePolicy(params_.policy, context_), false);
  }
};

/// replay-csv: TraceArrivalSource -> StreamEngine, as stream_replay runs it.
class ReplayCsv final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    cdbp::TraceStats stats = cdbp::scanTrace(options_.input);
    context_ = cdbp::PolicyContext{};
    context_.minDuration = stats.minDuration;
    context_.mu = stats.mu;
    makePolicy();
  }

  Rep rep(bool traced, Tracer& tracer, int parent) override {
    policy_->resetLog(traced);
    std::uint64_t t0 = nowNs();
    cdbp::TraceArrivalSource file(options_.input);
    TimedSource source(file, traced);
    StreamResult result = cdbp::simulateStream(source, *policy_);
    std::uint64_t t1 = nowNs();
    Rep out{secondsBetween(t0, t1), result, source.log().windows, ""};
    if (traced) {
      int span = tracer.record("replay", t0, t1, parent);
      tracer.record("open", t0, source.log().firstStart, span);
      tracer.record("feed", source.log().firstStart, source.exhaustedNs(), span);
      tracer.record("finish", source.exhaustedNs(), t1, span);
      JsonObject calls;
      calls.raw("trace_io.next", callLogJson({&source.log()}))
          .raw("policy.place", callLogJson(policy_->logs()));
      out.callsJson = calls.dump();
    }
    return out;
  }

  double check(const std::vector<cdbp::Item>& items, const StreamResult& timed,
               RunResult& out) override {
    cdbp::Instance instance(items);
    checkSame(out, "replay-csv: file replay vs in-memory InstanceArrivalSource",
              timed, streamReference(instance, params_.policy, context_), true);
    return timed.lb3;
  }
};

/// dense-batch: an in-memory Instance through simulateOnline.
class DenseBatch final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    instance_ = cdbp::Instance();
    instance_ = cdbp::loadTraceInstance(options_.input);
    context_ = cdbp::PolicyContext::forInstance(instance_);
    makePolicy();
  }

  Rep rep(bool traced, Tracer& tracer, int parent) override {
    policy_->resetLog(traced);
    std::uint64_t t0 = nowNs();
    cdbp::SimResult sim = cdbp::simulateOnline(instance_, *policy_);
    std::uint64_t t1 = nowNs();
    const CallLog& log = policy_->log();
    Rep out{secondsBetween(t0, t1), fromSim(sim, instance_.size()), log.windows, ""};
    if (traced) {
      int span = tracer.record("simulate", t0, t1, parent);
      tracer.record("prepare", t0, log.firstStart, span);
      tracer.record("loop", log.firstStart, log.lastEnd, span);
      tracer.record("finish", log.lastEnd, t1, span);
      JsonObject calls;
      calls.raw("policy.place", callLogJson(policy_->logs()));
      out.callsJson = calls.dump();
    }
    return out;
  }

  double check(const std::vector<cdbp::Item>& items, const StreamResult& timed,
               RunResult& out) override {
    bool sameInput = instance_.size() == items.size();
    for (std::size_t i = 0; sameInput && i < items.size(); ++i) {
      sameInput = instance_[static_cast<cdbp::ItemId>(i)] == items[i];
    }
    out.check(sameInput, "dense-batch: loaded trace differs from the generated items");
    StreamResult reference = streamReference(instance_, params_.policy, context_);
    checkSame(out, "dense-batch: simulateOnline vs StreamEngine (indexed)", timed,
              reference, false);
    // The stream's incremental Proposition 3 bound: lowerBounds() grows
    // faster than linearly on thousands of concurrent items.
    return reference.lb3;
  }

 private:
  cdbp::Instance instance_;
};

/// sharded-dense: simulateStream with kSharded; the caller thread feeds.
class ShardedDense final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    source_.reset();
    cdbp::Instance instance = cdbp::loadTraceInstance(options_.input);
    source_ = std::make_unique<cdbp::InstanceArrivalSource>(instance);
    context_ = cdbp::PolicyContext::forInstance(instance);
    makePolicy();
  }

  Rep rep(bool traced, Tracer& tracer, int parent) override {
    policy_->resetLog(traced);
    source_->reset();
    cdbp::StreamOptions streamOptions;
    streamOptions.engine = cdbp::PlacementEngine::kSharded;
    streamOptions.shardedThreads = shardedWorkers();
    std::uint64_t t0 = nowNs();
    TimedSource source(*source_, traced);
    StreamResult result = cdbp::simulateStream(source, *policy_, streamOptions);
    std::uint64_t t1 = nowNs();
    Rep out{secondsBetween(t0, t1), result, source.log().windows, ""};
    if (traced) {
      int span = tracer.record("sharded", t0, t1, parent);
      tracer.record("feed", source.log().firstStart, source.exhaustedNs(), span);
      tracer.record("finish", source.exhaustedNs(), t1, span);
      JsonObject calls;
      calls.raw("sharded.feed", callLogJson({&source.log()}))
          .raw("policy.place", callLogJson(policy_->logs()));
      out.callsJson = calls.dump();
    }
    return out;
  }

  double check(const std::vector<cdbp::Item>& items, const StreamResult& timed,
               RunResult& out) override {
    (void)items;
    source_->reset();
    cdbp::PolicyPtr policy = cdbp::makePolicy(params_.policy, context_);
    checkSame(out, "sharded-dense: kSharded vs kIndexed", timed,
              cdbp::simulateStream(*source_, *policy), true);
    return timed.lb3;
  }

 private:
  std::unique_ptr<cdbp::InstanceArrivalSource> source_;
};

std::unique_ptr<Workload> makeWorkload(const Options& options) {
  if (options.workload == "replay-csv") return std::make_unique<ReplayCsv>(options);
  if (options.workload == "dense-batch") return std::make_unique<DenseBatch>(options);
  if (options.workload == "sharded-dense") {
    return std::make_unique<ShardedDense>(options);
  }
  throw std::invalid_argument("not an offline workload: " + options.workload);
}

// Other tenants of a shared machine only ever slow a repetition down, so the
// fastest repetition is the steadiest estimate of the program's own speed.
std::size_t fastest(const std::vector<double>& seconds) {
  return static_cast<std::size_t>(
      std::min_element(seconds.begin(), seconds.end()) - seconds.begin());
}

/// Windows per chunk: 16k items, a few to a few tens of milliseconds.
constexpr std::size_t kChunkWindows = 256;

std::uint64_t sumNs(const std::vector<std::uint32_t>& ns, std::size_t begin,
                    std::size_t end) {
  return std::accumulate(ns.begin() + static_cast<std::ptrdiff_t>(begin),
                         ns.begin() + static_cast<std::ptrdiff_t>(end), std::uint64_t{0});
}

// Every repetition runs the same items through the same calls, in the same
// windows, and other tenants of a shared machine only ever slow a part of a
// repetition down, for spells of a second or more. So the timing metrics
// take each part's fastest execution over the repetitions.

std::size_t commonWindows(const std::vector<Rep>& reps) {
  std::size_t windows = reps.front().windowNs.size();
  for (const Rep& rep : reps) windows = std::min(windows, rep.windowNs.size());
  return windows;
}

/// The call's time as its fastest parts make it up: each chunk of
/// kChunkWindows windows from the repetition that ran it fastest, and the
/// rest of the call (before the first window and after the last) from the
/// repetition that ran that fastest.
double compositeSeconds(const std::vector<Rep>& reps) {
  const std::size_t windows = commonWindows(reps);
  double rest = reps.front().seconds;
  for (const Rep& rep : reps) {
    rest = std::min(rest, rep.seconds - static_cast<double>(sumNs(rep.windowNs, 0, windows)) *
                                            1e-9);
  }
  double seconds = std::max(0.0, rest);
  for (std::size_t begin = 0; begin < windows; begin += kChunkWindows) {
    std::size_t end = std::min(windows, begin + kChunkWindows);
    std::uint64_t bestNs = sumNs(reps.front().windowNs, begin, end);
    for (const Rep& rep : reps) bestNs = std::min(bestNs, sumNs(rep.windowNs, begin, end));
    seconds += static_cast<double>(bestNs) * 1e-9;
  }
  return seconds;
}

/// Each window's fastest time over the repetitions.
std::vector<std::uint32_t> fastestWindows(const std::vector<Rep>& reps) {
  std::vector<std::uint32_t> out(reps.front().windowNs.begin(),
                                 reps.front().windowNs.begin() +
                                     static_cast<std::ptrdiff_t>(commonWindows(reps)));
  for (const Rep& rep : reps) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::min(out[i], rep.windowNs[i]);
  }
  return out;
}

}  // namespace

RunResult runOffline(const Options& options, Tracer& tracer) {
  RunResult out;
  std::unique_ptr<Workload> workload = makeWorkload(options);
  int root = tracer.begin("run " + options.workload);

  // The set-ups are spread over the run, one before each of the first
  // repetitions, so their median does not hang on one spell of the shared
  // machine.
  const std::size_t setups = options.smoke || options.trace ? 1 : kSetups;
  std::vector<double> setupSeconds;
  SpeedProbe probe;
  auto setup = [&] {
    probe.take();
    int span = tracer.begin("setup", root);
    std::uint64_t t0 = nowNs();
    workload->setup();
    setupSeconds.push_back(secondsBetween(t0, nowNs()));
    tracer.end(span);
  };
  setup();

  std::vector<Rep> timed;
  std::vector<double> untracedSeconds;
  std::vector<double> tracedSeconds;
  std::vector<std::string> tracedCalls;
  auto untracedRep = [&](const char* name) {
    probe.take();
    int span = tracer.begin(name, root);
    Rep rep = workload->rep(false, tracer, span);
    tracer.end(span);
    return rep;
  };
  if (!options.smoke) untracedRep("warm-up");

  std::uint64_t start = nowNs();
  if (options.trace) {
    // Untraced and traced reps alternate, so their ratio is the tracing
    // overhead under the same machine conditions.
    for (std::size_t i = 0; i < 3; ++i) {
      timed.push_back(untracedRep("rep"));
      untracedSeconds.push_back(timed.back().seconds);
      int span = tracer.begin("traced rep", root);
      timed.push_back(workload->rep(true, tracer, span));
      tracer.end(span);
      tracedSeconds.push_back(timed.back().seconds);
      tracedCalls.push_back(timed.back().callsJson);
    }
  } else {
    do {
      if (setupSeconds.size() < setups) setup();
      timed.push_back(untracedRep("rep"));
      untracedSeconds.push_back(timed.back().seconds);
    } while (!options.smoke &&
             (timed.size() < 3 || setupSeconds.size() < setups ||
              secondsBetween(start, nowNs()) < options.seconds));
  }
  double peakRssMb = static_cast<double>(procStatusKb(0, "VmHWM")) / 1024.0;

  const std::size_t n = timed.front().result.items;
  out.attempted = n * timed.size();
  for (const Rep& rep : timed) {
    out.check(sameResult(rep.result, timed.front().result, true),
              options.workload + ": repetitions disagree: {" +
                  describe(rep.result) + "} vs {" + describe(timed.front().result) +
                  "}");
  }
  out.check(n == options.itemCount(), options.workload + ": engine consumed " +
                                          std::to_string(n) + " of " +
                                          std::to_string(options.itemCount()) +
                                          " items");

  // Checks run after timing and outside every metric.
  int checkSpan = tracer.begin("check", root);
  std::vector<cdbp::Item> items = generateItems(
      workloadParams(options.workload), options.seed, options.itemCount());
  const StreamResult& result = timed.front().result;
  double lb3 = workload->check(items, result, out);
  out.check(lb3 > 0 && result.totalUsage >= lb3 * (1 - 1e-12),
            options.workload + ": usage " + jsonNumber(result.totalUsage) +
                " below LB3 " + jsonNumber(lb3));
  tracer.end(checkSpan);

  double usageOverLb3 = result.totalUsage / lb3;
  out.detail.integer("items", n)
      .integer("reps", untracedSeconds.size())
      .raw("rep_seconds", jsonNumbers(untracedSeconds))
      .integer("setups", setupSeconds.size())
      .num("usage", result.totalUsage)
      .num("lb3", lb3)
      .integer("bins_opened", result.binsOpened)
      .integer("max_open_bins", result.maxOpenBins)
      .integer("categories", result.categoriesUsed);

  if (options.trace) {
    int ledgerSpan = tracer.begin("ledger", root);
    runLedger(options, items, out, tracer, ledgerSpan);
    tracer.end(ledgerSpan);
    out.metric("trace.overhead",
               untracedSeconds[fastest(untracedSeconds)] /
                   tracedSeconds[fastest(tracedSeconds)],
               "ratio");
    out.detail.raw("traced_calls", jsonArray(tracedCalls));
  } else {
    const double seconds = compositeSeconds(timed);
    const double slowdown = probe.slowdown();
    Percentiles latency = summarize(fastestWindows(timed), 1e-3 / kWindowCalls);
    out.metric("setup_s", median(setupSeconds) / slowdown, "s");
    out.metric("items_per_s", static_cast<double>(n) / seconds * slowdown, "items/s");
    out.metric("usage_over_lb3", usageOverLb3, "ratio");
    out.metric("peak_rss_mb", peakRssMb, "MiB");
    out.metric("latency_p50_us", latency.p50 / slowdown, "us");
    out.metric("latency_p90_us", latency.p90 / slowdown, "us");
    out.metric("answered_frac",
               1.0 - static_cast<double>(out.failed) /
                         static_cast<double>(out.attempted),
               "ratio");
    out.detail.integer("latency_windows", latency.count)
        .num("latency_p99_us", latency.tail)
        .num("latency_tail_percentile", latency.tailPercentile)
        .num("composite_seconds", seconds)
        .raw("setup_seconds", jsonNumbers(setupSeconds))
        .num("slowdown", slowdown)
        .raw("probe_seconds", jsonNumbers(probe.seconds));
  }
  tracer.end(root);
  return out;
}

}  // namespace bench
