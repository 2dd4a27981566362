// Shared declarations of bench_suite, the benchmark's measuring process.
//
// It times calls into the cdbp library from outside: it links the
// library, feeds it generated inputs through the public API and reads the
// clock around those calls. Nothing here is compiled into the library.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/item.hpp"
#include "online/policy.hpp"
#include "sim/streaming.hpp"

namespace bench {

// ---------------------------------------------------------------------------
// Clock

inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double secondsBetween(std::uint64_t start, std::uint64_t end) {
  return static_cast<double>(end - start) * 1e-9;
}

/// Nanosecond sample clipped to 32 bits (≈4.29 s), the storage unit of
/// every per-call sample vector.
inline std::uint32_t clipNs(std::uint64_t ns) {
  return ns > 0xFFFFFFFFull ? 0xFFFFFFFFu : static_cast<std::uint32_t>(ns);
}

// ---------------------------------------------------------------------------
// Seeded RNG (xoshiro256**), owned by the benchmark so inputs stay the same
// whatever the library's own generators do.

class Rng {
 public:
  Rng(std::uint64_t seed, std::string_view stream);
  std::uint64_t next();
  /// Uniform on [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Exponential with the given rate.
  double exponential(double rate);

 private:
  std::uint64_t s_[4];
};

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> values);

/// Nearest-rank percentile (p in [0, 100]) of ascending `sorted`.
double percentileSorted(const std::vector<double>& sorted, double p);

/// The highest of {99.9, 99, 90, 50} that leaves at least ten samples
/// beyond it; 0 when even the median is unsupported (n < 20).
double supportedPercentile(std::size_t n);

/// A latency summary: p50, p90, and p99 or the highest percentile below 99
/// that the sample count supports. Values are samples times `scale`.
struct Percentiles {
  std::size_t count = 0;
  double p50 = 0;
  double p90 = 0;
  double tail = 0;
  double tailPercentile = 0;
};
Percentiles summarize(const std::vector<std::uint32_t>& samplesNs,
                      double scale = 1e-3);

// ---------------------------------------------------------------------------
// Machine-speed correction. Other tenants of a shared machine slow all of a
// run's work, for spells of seconds to minutes, and a whole run can fall in
// one. So before every set-up, repetition, pass and round-trip segment the
// measuring thread times a kernel of the benchmark's own that calls nothing
// in the library (the probe), and the end-to-end timings are reported at a
// fixed reference speed: times are divided by the run's slowdown and rates
// multiplied by it. Parent and change run the same probe, so a change to the
// library moves a corrected timing as much as the measured one.

/// Seconds of the probe: 400k dependent loads at pseudo-random offsets of a
/// 256 KiB table.
double probeSeconds();

/// About the probe's median time on the baseline machine (README.md), so
/// corrected timings there read close to measured ones.
inline constexpr double kProbeReferenceSeconds = 0.0035;

struct SpeedProbe {
  std::vector<double> seconds;

  void take() { seconds.push_back(probeSeconds()); }
  /// The run's median probe time over the reference; above 1 on a slow run.
  double slowdown() const { return median(seconds) / kProbeReferenceSeconds; }
};

// ---------------------------------------------------------------------------
// Minimal JSON object builder (numbers with all their digits).

class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value);
  JsonObject& integer(std::string_view key, std::uint64_t value);
  JsonObject& boolean(std::string_view key, bool value);
  JsonObject& str(std::string_view key, std::string_view value);
  /// Inserts pre-serialized JSON (an object or array) under `key`.
  JsonObject& raw(std::string_view key, const std::string& json);
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view key);
  std::string body_;
};

std::string jsonString(std::string_view value);
std::string jsonNumber(double value);
std::string jsonArray(const std::vector<std::string>& elements);
std::string jsonNumbers(const std::vector<double>& values);

// ---------------------------------------------------------------------------
// Results

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `failures` lists every correctness check
/// that did not hold; the run is correct when it is empty.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  JsonObject detail;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

// ---------------------------------------------------------------------------
// /proc readers

/// A "Vm*:" field of /proc/<pid>/status in KiB (pid 0 = this process);
/// 0 when unreadable.
std::uint64_t procStatusKb(pid_t pid, std::string_view field);

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around its calls into each layer,
// kept in memory and written out when the run ends (Chrome trace JSON plus a
// per-name self-time summary). A disabled tracer records nothing.

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int begin(std::string name, int parent = -1, int track = 0);
  void end(int id);
  int record(std::string name, std::uint64_t start, std::uint64_t end,
             int parent, int track = 0);

  /// Per-name totals: (name, spans, total ms, self ms), by descending self
  /// time. Self time is a span's duration minus the part its children cover.
  struct SelfTime {
    std::string name;
    std::size_t spans = 0;
    double totalMs = 0;
    double selfMs = 0;
  };
  std::vector<SelfTime> selfTimes() const;

  /// Writes {"traceEvents": [...], "selfTime": [...], "detail": extra}.
  void write(const std::string& path, const std::string& extraJson) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    int parent = -1;
    int track = 0;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Call timing from outside the library. Untraced runs keep the duration of
// each window of kWindowCalls consecutive calls (one clock read per window):
// a single item's service time is multimodal (it includes zero, one or more
// departures), so its median is unstable, while the window average is not.
// Traced runs keep every call's duration and interval.

inline constexpr std::uint64_t kWindowCalls = 64;

struct CallLog {
  explicit CallLog(bool traced_) : traced(traced_) {}

  void enter() {
    if (traced) {
      std::uint64_t t = nowNs();
      if (calls == 0) {
        firstStart = t;
      } else {
        intervals.push_back(clipNs(t - mark));
      }
      mark = t;
    } else if (calls % kWindowCalls == 0) {
      std::uint64_t t = nowNs();
      if (calls > 0) windows.push_back(clipNs(t - mark));
      mark = t;
    }
    ++calls;
  }

  void leave() {
    if (traced) {
      lastEnd = nowNs();
      durations.push_back(clipNs(lastEnd - mark));
    }
  }

  bool traced;
  std::uint64_t calls = 0;
  std::uint64_t mark = 0;
  std::uint64_t firstStart = 0;
  std::uint64_t lastEnd = 0;
  std::vector<std::uint32_t> windows;    ///< ns per kWindowCalls calls (untraced)
  std::vector<std::uint32_t> intervals;  ///< ns between call starts (traced)
  std::vector<std::uint32_t> durations;  ///< ns inside each call (traced)
};

/// ArrivalSource wrapper timing next(): the time between calls is the
/// engine's service time per item on the thread that feeds it.
class TimedSource final : public cdbp::ArrivalSource {
 public:
  TimedSource(cdbp::ArrivalSource& inner, bool traced)
      : inner_(inner), log_(traced) {}

  bool next(cdbp::StreamItem& out) override {
    log_.enter();
    bool ok = inner_.next(out);
    log_.leave();
    if (!ok && exhaustedNs_ == 0) exhaustedNs_ = nowNs();
    return ok;
  }

  const CallLog& log() const { return log_; }
  std::uint64_t exhaustedNs() const { return exhaustedNs_; }

 private:
  cdbp::ArrivalSource& inner_;
  CallLog log_;
  std::uint64_t exhaustedNs_ = 0;
};

/// OnlinePolicy wrapper timing place(). Every other hook forwards, so the
/// engines see the wrapped policy's decisions, shard keys and clones; each
/// clone gets its own log, collected in clones().
class TimedPolicy final : public cdbp::OnlinePolicy {
 public:
  TimedPolicy(cdbp::PolicyPtr inner, bool traced)
      : inner_(std::move(inner)), log_(std::make_shared<CallLog>(traced)) {}

  std::string name() const override { return inner_->name(); }
  bool clairvoyant() const override { return inner_->clairvoyant(); }
  cdbp::PlacementDecision place(const cdbp::PlacementView& view,
                                const cdbp::Item& item) override {
    log_->enter();
    cdbp::PlacementDecision decision = inner_->place(view, item);
    log_->leave();
    return decision;
  }
  void reset() override { inner_->reset(); }
  std::optional<long long> shardKey(const cdbp::Item& item) const override {
    return inner_->shardKey(item);
  }
  std::unique_ptr<cdbp::OnlinePolicy> clone() const override;

  /// Starts a fresh log, and forgets earlier clones, for the next run.
  void resetLog(bool traced) {
    log_ = std::make_shared<CallLog>(traced);
    clones_.clear();
  }
  const CallLog& log() const { return *log_; }
  /// This policy's log plus every clone's.
  std::vector<const CallLog*> logs() const {
    std::vector<const CallLog*> out = {log_.get()};
    for (const auto& clone : clones_) out.push_back(clone.get());
    return out;
  }

 private:
  cdbp::PolicyPtr inner_;
  std::shared_ptr<CallLog> log_;
  mutable std::vector<std::shared_ptr<CallLog>> clones_;
};

/// JSON summary of call logs: {"calls", "total_ms", "interval_ns": {...},
/// "duration_ns": {...}}, each with samples, p50 and the supported tail.
std::string callLogJson(const std::vector<const CallLog*>& logs);

// ---------------------------------------------------------------------------
// Workloads and their inputs

struct WorkloadParams {
  std::string name;
  std::size_t items = 0;       ///< full-size input
  std::size_t smokeItems = 0;  ///< --smoke input
  double arrivalRate = 1;      ///< Poisson arrivals per time unit
  double mu = 1;               ///< durations U[1, mu]
  double minSize = 0.01;       ///< sizes U[minSize, maxSize]
  double maxSize = 1;
  std::string policy;          ///< makePolicy spec
};

/// Throws std::invalid_argument for an unknown workload name.
const WorkloadParams& workloadParams(const std::string& name);

/// Workers of the sharded engine: min(3, nproc - 1), leaving a core for the
/// thread that feeds them.
std::size_t shardedWorkers();

/// The workload's items in arrival order, from the benchmark's own RNG.
/// Times are rounded to 1e-6 and sizes to 1e-4, the precision of the trace
/// files the benchmark writes.
std::vector<cdbp::Item> generateItems(const WorkloadParams& params,
                                      std::uint64_t seed, std::size_t count);

/// Writes `items` as a cdbp-trace v1 CSV (shortest round-trip numbers).
void writeTraceCsv(const std::vector<cdbp::Item>& items,
                   const std::string& path);

// ---------------------------------------------------------------------------
// Run options and entry points

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string input;      ///< generated trace file
  std::string served;     ///< cdbp_served binary
  std::string traceOut;   ///< Chrome trace output (traced runs)

  std::size_t itemCount() const;
};

RunResult runOffline(const Options& options, Tracer& tracer);
RunResult runServeOpen(const Options& options, Tracer& tracer);

/// Per-layer metrics of the traced run: the workload's input pushed through
/// each layer on its own, timed from outside (ledger.cpp).
void runLedger(const Options& options, const std::vector<cdbp::Item>& items,
               RunResult& result, Tracer& tracer, int parentSpan);

// ---------------------------------------------------------------------------
// The serve-open ladder's rule, shared with the self-test.

struct StepOutcome {
  double offeredRate = 0;   ///< items/s the schedule offered
  double seconds = 0;       ///< step length
  std::size_t scheduled = 0;
  std::size_t answered = 0;
  std::size_t failed = 0;
  std::size_t backlogAtEnd = 0;  ///< items due but unanswered at step end
  double p99Us = 0;
};

inline constexpr double kLatencyLimitUs = 1000.0;
inline constexpr double kBacklogLimitSeconds = 0.010;

/// True when the step meets all three limits: p99 within kLatencyLimitUs,
/// a backlog at step end of at most kBacklogLimitSeconds of offered items,
/// and nothing failed or left unanswered.
bool stepSustained(const StepOutcome& step);

/// The achieved rate (answered ÷ seconds) of the highest-rate sustained
/// step; 0 when no step is sustained.
double sustainedRate(const std::vector<StepOutcome>& steps);

}  // namespace bench
