// bench_suite: the benchmark's measuring process. run.py builds it,
// generates inputs with it and runs one workload per process:
//
//   bench_suite gen --workload W --seed N [--smoke] --out PATH
//   bench_suite run --workload W --seed N --seconds S --trace 0|1 [--smoke]
//                   --input PATH --served PATH [--trace-out PATH]
//   bench_suite selftest
//
// `run` prints one JSON object as its last line: correct, attempted,
// failed, metrics ({name: {value, unit}}), failures and detail.
#include <sys/prctl.h>

#include <csignal>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

#include "bench.hpp"

namespace {

using namespace bench;

std::map<std::string, std::string> parseFlags(int argc, char** argv, int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.substr(0, 2) != "--") {
      throw std::invalid_argument("unexpected argument " + std::string(arg));
    }
    std::string name(arg.substr(2));
    if (name == "smoke") {
      flags.insert_or_assign(name, std::string("1"));
    } else if (i + 1 < argc) {
      flags.insert_or_assign(name, std::string(argv[++i]));
    } else {
      throw std::invalid_argument("flag --" + name + " needs a value");
    }
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& flags, const std::string& name) {
  auto it = flags.find(name);
  if (it == flags.end()) throw std::invalid_argument("missing --" + name);
  return it->second;
}

Options optionsFrom(const std::map<std::string, std::string>& flags) {
  Options o;
  o.workload = need(flags, "workload");
  workloadParams(o.workload);  // validates the name
  o.seed = std::stoull(need(flags, "seed"));
  o.smoke = flags.count("smoke") != 0;
  return o;
}

std::string resultJson(const RunResult& r) {
  std::string metrics = "{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    if (i > 0) metrics += ",";
    JsonObject m;
    m.num("value", r.metrics[i].value).str("unit", r.metrics[i].unit);
    metrics += jsonString(r.metrics[i].name) + ":" + m.dump();
  }
  metrics += "}";
  std::vector<std::string> failures;
  for (const std::string& f : r.failures) failures.push_back(jsonString(f));
  JsonObject o;
  o.boolean("correct", r.failures.empty())
      .integer("attempted", std::max<std::uint64_t>(1, r.attempted))
      .integer("failed", r.failed)
      .raw("metrics", metrics)
      .raw("failures", jsonArray(failures))
      .raw("detail", r.detail.dump());
  return o.dump();
}

int cmdGen(const std::map<std::string, std::string>& flags) {
  Options o = optionsFrom(flags);
  writeTraceCsv(generateItems(workloadParams(o.workload), o.seed, o.itemCount()),
                need(flags, "out"));
  return 0;
}

int cmdRun(const std::map<std::string, std::string>& flags) {
  Options o = optionsFrom(flags);
  o.seconds = std::stod(need(flags, "seconds"));
  o.trace = need(flags, "trace") == "1";
  o.input = need(flags, "input");
  o.served = need(flags, "served");
  if (flags.count("trace-out")) o.traceOut = flags.at("trace-out");
  Tracer tracer(o.trace);
  RunResult result;
  try {
    result = o.workload == "serve-open" ? runServeOpen(o, tracer) : runOffline(o, tracer);
  } catch (const std::exception& e) {
    result.failures.push_back(o.workload + ": " + e.what());
    result.attempted = std::max<std::uint64_t>(1, result.attempted);
    result.failed = result.attempted;
  }
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) result.failures.push_back("metric " + m.name + " is not finite");
  }
  if (o.trace && !o.traceOut.empty()) tracer.write(o.traceOut, result.detail.dump());
  std::cout << resultJson(result) << std::endl;
  return result.failures.empty() ? 0 : 1;
}

// --- self-test of the statistics and the ladder rule ---------------------

int failures = 0;
int checks = 0;

void expect(bool ok, const std::string& what) {
  ++checks;
  if (!ok) {
    ++failures;
    std::cerr << "selftest FAILED: " << what << '\n';
  }
}

StepOutcome step(double rate, double p99Us, std::size_t backlog, std::size_t failed = 0) {
  StepOutcome s;
  s.offeredRate = rate;
  s.seconds = 0.5;
  s.scheduled = static_cast<std::size_t>(rate * 0.5);
  s.answered = s.scheduled - failed;
  s.failed = failed;
  s.backlogAtEnd = backlog;
  s.p99Us = p99Us;
  return s;
}

int cmdSelftest() {
  // Percentile support: the highest percentile with >= 10 samples beyond it.
  expect(supportedPercentile(10000) == 99.9, "10000 samples support p99.9");
  expect(supportedPercentile(1000) == 99.0, "1000 samples support p99");
  expect(supportedPercentile(999) == 90.0, "999 samples support only p90");
  expect(supportedPercentile(100) == 90.0, "100 samples support p90");
  expect(supportedPercentile(99) == 50.0, "99 samples support only p50");
  expect(supportedPercentile(20) == 50.0, "20 samples support p50");
  expect(supportedPercentile(19) == 0.0, "19 samples support nothing");

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(percentileSorted(hundred, 50) == 50, "nearest-rank p50 of 1..100");
  expect(percentileSorted(hundred, 99) == 99, "nearest-rank p99 of 1..100");
  expect(percentileSorted(hundred, 100) == 100, "nearest-rank p100 of 1..100");
  expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5, "median odd/even");
  const double ref = kProbeReferenceSeconds;
  SpeedProbe slow{{3 * ref, ref, 2 * ref}};
  expect(std::abs(slow.slowdown() - 2.0) < 1e-12,
         "slowdown is the median probe over the reference");

  std::vector<std::uint32_t> few(200);
  for (std::size_t i = 0; i < few.size(); ++i) few[i] = static_cast<std::uint32_t>(1000 * (i + 1));
  Percentiles p = summarize(few);
  expect(p.count == 200 && p.tailPercentile == 90.0 && p.tail == 180.0 && p.p50 == 100.0,
         "summarize caps the tail at the supported percentile (us)");

  // Ladder: the highest-rate step meeting every limit, even above a miss.
  std::vector<StepOutcome> ladder = {step(25000, 80, 10), step(35355, 90, 20),
                                     step(50000, 1500, 30), step(70711, 400, 100),
                                     step(100000, 2000, 5000)};
  expect(stepSustained(ladder[0]) && !stepSustained(ladder[2]), "p99 limit");
  expect(sustainedRate(ladder) == static_cast<double>(ladder[3].answered) / 0.5,
         "sustained rate is the highest passing step's achieved rate");
  expect(stepSustained(step(50000, 100, 500)), "backlog of exactly 10 ms passes");
  expect(!stepSustained(step(50000, 100, 501)), "backlog above 10 ms fails");
  expect(!stepSustained(step(50000, 100, 0, 1)), "a failed item fails the step");
  StepOutcome unanswered = step(50000, 100, 0);
  unanswered.answered -= 1;
  expect(!stepSustained(unanswered), "an unanswered item fails the step");
  expect(sustainedRate({step(25000, 5000, 0)}) == 0, "no sustained step gives 0");

  // Inputs: deterministic per seed, independent per workload, in order.
  const WorkloadParams& replay = workloadParams("replay-csv");
  auto a = generateItems(replay, 7, 1000);
  auto b = generateItems(replay, 7, 1000);
  auto c = generateItems(replay, 8, 1000);
  expect(a == b, "same seed, same items");
  expect(!(a == c), "another seed, other items");
  bool ordered = true;
  bool inRange = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i].arrival() < a[i - 1].arrival()) ordered = false;
    if (a[i].size < replay.minSize - 1e-9 || a[i].size > replay.maxSize + 1e-9 ||
        !(a[i].departure() > a[i].arrival())) {
      inRange = false;
    }
  }
  expect(ordered && inRange, "items arrive in order with sizes and durations in range");
  expect(jsonNumber(0.1) == "0.1" && jsonNumber(1e300) == "1e+300",
         "shortest round-trip number formatting");

  std::cout << "bench_suite selftest: " << checks - failures << "/" << checks
            << " checks passed\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  // Short sleeps (waiting for the daemon's socket) end on time, not up to
  // the default 50 us of timer slack later.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  if (argc < 2) {
    std::cerr << "usage: bench_suite gen|run|selftest [flags]\n";
    return 2;
  }
  std::string command = argv[1];
  try {
    if (command == "selftest") return cmdSelftest();
    auto flags = parseFlags(argc, argv, 2);
    if (command == "gen") return cmdGen(flags);
    if (command == "run") return cmdRun(flags);
    std::cerr << "bench_suite: unknown command " << command << '\n';
  } catch (const std::exception& e) {
    std::cerr << "bench_suite: " << e.what() << '\n';
  }
  return 2;
}
