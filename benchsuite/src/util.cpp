#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

namespace bench {

// ---------------------------------------------------------------------------
// Rng

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed, std::string_view stream) {
  // FNV-1a of the stream name keeps the workloads' streams independent.
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (char c : stream) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
  }
  std::uint64_t x = seed ^ h;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next() {
  std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::exponential(double rate) { return -std::log1p(-uniform()) / rate; }

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double supportedPercentile(std::size_t n) {
  for (double p : {99.9, 99.0, 90.0, 50.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0 - 1e-9) return p;
  }
  return 0;
}

Percentiles summarize(const std::vector<std::uint32_t>& samplesNs, double scale) {
  Percentiles out;
  out.count = samplesNs.size();
  if (samplesNs.empty()) return out;
  std::vector<double> sorted(samplesNs.begin(), samplesNs.end());
  std::sort(sorted.begin(), sorted.end());
  out.p50 = percentileSorted(sorted, 50.0) * scale;
  out.p90 = percentileSorted(sorted, 90.0) * scale;
  double supported = supportedPercentile(sorted.size());
  out.tailPercentile = supported == 0 ? 100.0 : std::min(99.0, supported);
  out.tail = percentileSorted(sorted, out.tailPercentile) * scale;
  return out;
}

// ---------------------------------------------------------------------------
// Machine-speed correction

double probeSeconds() {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(1u << 16);
    std::uint64_t x = 0x2545F4914F6CDD1Dull;
    for (auto& v : t) v = static_cast<std::uint32_t>(splitmix64(x));
    return t;
  }();
  std::uint64_t t0 = nowNs();
  std::uint32_t at = 1;
  for (std::uint32_t k = 0; k < 400'000; ++k) {
    at = table[(at * 2654435761u + k) & (table.size() - 1)];
  }
  std::uint64_t t1 = nowNs();
  static volatile std::uint32_t sink;
  sink = at;  // keeps the loads
  return secondsBetween(t0, t1);
}

// ---------------------------------------------------------------------------
// JSON

std::string jsonString(std::string_view value) {
  std::string out = "\"";
  for (char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string jsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  (void)ec;
  return std::string(buf, end);
}

std::string jsonArray(const std::vector<std::string>& elements) {
  std::string out = "[";
  for (std::size_t i = 0; i < elements.size(); ++i) {
    if (i > 0) out += ",";
    out += elements[i];
  }
  return out + "]";
}

std::string jsonNumbers(const std::vector<double>& values) {
  std::vector<std::string> out;
  for (double v : values) out.push_back(jsonNumber(v));
  return jsonArray(out);
}

void JsonObject::key(std::string_view key) {
  if (!body_.empty()) body_ += ",";
  body_ += jsonString(key);
  body_ += ":";
}

JsonObject& JsonObject::num(std::string_view k, double value) {
  key(k);
  body_ += jsonNumber(value);
  return *this;
}

JsonObject& JsonObject::integer(std::string_view k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::boolean(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::str(std::string_view k, std::string_view value) {
  key(k);
  body_ += jsonString(value);
  return *this;
}

JsonObject& JsonObject::raw(std::string_view k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

// ---------------------------------------------------------------------------
// /proc

std::uint64_t procStatusKb(pid_t pid, std::string_view field) {
  std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > field.size() && line.compare(0, field.size(), field) == 0 &&
        line[field.size()] == ':') {
      std::istringstream fields(line.substr(field.size() + 1));
      std::uint64_t kb = 0;
      fields >> kb;
      return kb;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Tracer

int Tracer::begin(std::string name, int parent, int track) {
  if (!enabled_) return -1;
  std::uint64_t t = nowNs();
  spans_.push_back({std::move(name), t, t, parent, track});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = nowNs();
}

int Tracer::record(std::string name, std::uint64_t start, std::uint64_t end,
                   int parent, int track) {
  if (!enabled_) return -1;
  spans_.push_back({std::move(name), start, std::max(start, end), parent, track});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Tracer::SelfTime> Tracer::selfTimes() const {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].push_back(
          {span.start, span.end});
    }
  }
  std::map<std::string, SelfTime> byName;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Covered = union of the children's intervals clipped to the span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t cursor = span.start;
    for (auto [s, e] : kids) {
      s = std::max(s, cursor);
      e = std::min(e, span.end);
      if (e > s) {
        covered += e - s;
        cursor = e;
      }
    }
    SelfTime& entry = byName[span.name];
    entry.name = span.name;
    entry.spans += 1;
    double total = static_cast<double>(span.end - span.start) * 1e-6;
    entry.totalMs += total;
    entry.selfMs += total - static_cast<double>(covered) * 1e-6;
  }
  std::vector<SelfTime> out;
  for (auto& [name, entry] : byName) out.push_back(entry);
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.selfMs > b.selfMs;
  });
  return out;
}

void Tracer::write(const std::string& path, const std::string& extraJson) const {
  std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start;
  for (const Span& span : spans_) origin = std::min(origin, span.start);
  std::vector<std::string> events;
  events.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    JsonObject args;
    args.integer("id", i);
    if (span.parent >= 0) args.integer("parent", static_cast<std::uint64_t>(span.parent));
    JsonObject event;
    event.str("name", span.name)
        .str("ph", "X")
        .num("ts", static_cast<double>(span.start - origin) * 1e-3)
        .num("dur", static_cast<double>(span.end - span.start) * 1e-3)
        .integer("pid", 1)
        .integer("tid", static_cast<std::uint64_t>(span.track))
        .raw("args", args.dump());
    events.push_back(event.dump());
  }
  std::vector<std::string> self;
  for (const SelfTime& entry : selfTimes()) {
    JsonObject row;
    row.str("name", entry.name)
        .integer("spans", entry.spans)
        .num("total_ms", entry.totalMs)
        .num("self_ms", entry.selfMs);
    self.push_back(row.dump());
  }
  JsonObject doc;
  doc.raw("traceEvents", jsonArray(events))
      .raw("selfTime", jsonArray(self))
      .raw("detail", extraJson.empty() ? "{}" : extraJson);
  std::ofstream out(path);
  out << doc.dump() << '\n';
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

// ---------------------------------------------------------------------------
// Call logs

std::unique_ptr<cdbp::OnlinePolicy> TimedPolicy::clone() const {
  cdbp::PolicyPtr inner = inner_->clone();
  if (!inner) return nullptr;
  auto wrapped = std::make_unique<TimedPolicy>(std::move(inner), log_->traced);
  clones_.push_back(wrapped->log_);
  return wrapped;
}

std::string callLogJson(const std::vector<const CallLog*>& logs) {
  std::vector<std::uint32_t> intervals;
  std::vector<std::uint32_t> durations;
  std::uint64_t calls = 0;
  double totalMs = 0;
  for (const CallLog* log : logs) {
    calls += log->calls;
    for (std::uint32_t d : log->durations) totalMs += d * 1e-6;
    intervals.insert(intervals.end(), log->intervals.begin(), log->intervals.end());
    durations.insert(durations.end(), log->durations.begin(), log->durations.end());
  }
  auto summary = [](const std::vector<std::uint32_t>& samples) {
    Percentiles p = summarize(samples, 1.0);
    JsonObject o;
    o.integer("samples", p.count).num("p50", p.p50).num("tail", p.tail).num(
        "tail_percentile", p.tailPercentile);
    return o.dump();
  };
  JsonObject o;
  o.integer("calls", calls)
      .num("total_ms", totalMs)
      .raw("interval_ns", summary(intervals))
      .raw("duration_ns", summary(durations));
  return o.dump();
}

// ---------------------------------------------------------------------------
// Ladder rule

bool stepSustained(const StepOutcome& step) {
  return step.failed == 0 && step.answered == step.scheduled &&
         step.p99Us <= kLatencyLimitUs &&
         static_cast<double>(step.backlogAtEnd) <=
             kBacklogLimitSeconds * step.offeredRate;
}

double sustainedRate(const std::vector<StepOutcome>& steps) {
  const StepOutcome* best = nullptr;
  for (const StepOutcome& step : steps) {
    if (stepSustained(step) && step.seconds > 0 &&
        (best == nullptr || step.offeredRate > best->offeredRate)) {
      best = &step;
    }
  }
  return best == nullptr ? 0.0
                         : static_cast<double>(best->answered) / best->seconds;
}

}  // namespace bench
