#include "online/policy_factory.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "online/any_fit.hpp"
#include "online/classify_departure.hpp"
#include "online/classify_duration.hpp"
#include "online/combined.hpp"
#include "online/departure_fit.hpp"
#include "online/hybrid_ff.hpp"
#include "util/parse.hpp"

namespace cdbp {

namespace {

std::string trim(const std::string& s) {
  std::size_t first = s.find_first_not_of(" \t");
  if (first == std::string::npos) return "";
  std::size_t last = s.find_last_not_of(" \t");
  return s.substr(first, last - first + 1);
}

/// A parsed `name(key=value, ...)` spec with consumption tracking, so
/// unknown or misspelled parameter names are errors, not silent defaults.
struct ParsedSpec {
  std::string name;
  std::map<std::string, std::string> params;
  std::string original;

  [[noreturn]] void fail(const std::string& why) const {
    throw std::invalid_argument("makePolicy: " + why + " in spec '" +
                               original + "'\n" + policySpecHelp());
  }

  bool has(const std::string& key) const { return params.count(key) > 0; }

  double getDouble(const std::string& key) {
    auto it = params.find(key);
    if (it == params.end()) fail("missing parameter '" + key + "'");
    double value = 0;
    if (!tryParseDouble(it->second, value)) {
      fail("parameter '" + key + "' is not a number (got '" + it->second +
           "')");
    }
    params.erase(it);
    return value;
  }

  std::uint64_t getUint(const std::string& key) {
    auto it = params.find(key);
    if (it == params.end()) fail("missing parameter '" + key + "'");
    std::uint64_t value = 0;
    if (!tryParseUint(it->second, value)) {
      fail("parameter '" + key + "' is not a non-negative integer (got '" +
           it->second + "')");
    }
    params.erase(it);
    return value;
  }

  void finish() const {
    if (!params.empty()) {
      fail("unknown parameter '" + params.begin()->first + "'");
    }
  }
};

ParsedSpec parseSpec(const std::string& spec) {
  ParsedSpec parsed;
  parsed.original = spec;
  std::string s = trim(spec);
  if (s.empty()) parsed.fail("empty spec");
  std::size_t open = s.find('(');
  if (open == std::string::npos) {
    parsed.name = s;
    return parsed;
  }
  if (s.back() != ')') parsed.fail("missing ')'");
  parsed.name = trim(s.substr(0, open));
  std::string args = s.substr(open + 1, s.size() - open - 2);
  std::stringstream stream(args);
  std::string piece;
  while (std::getline(stream, piece, ',')) {
    piece = trim(piece);
    if (piece.empty()) continue;
    std::size_t eq = piece.find('=');
    if (eq == std::string::npos) {
      parsed.fail("parameter '" + piece + "' is not key=value");
    }
    std::string key = trim(piece.substr(0, eq));
    std::string value = trim(piece.substr(eq + 1));
    if (key.empty() || value.empty()) {
      parsed.fail("parameter '" + piece + "' is not key=value");
    }
    if (!parsed.params.emplace(key, value).second) {
      parsed.fail("duplicate parameter '" + key + "'");
    }
  }
  return parsed;
}

/// Context with known durations, or an error pointing at the spec that
/// needed it.
void requireDurations(const ParsedSpec& spec, const PolicyContext& context) {
  if (!(context.minDuration > 0) || !(context.mu >= 1)) {
    spec.fail(
        "no explicit parameters and no known-durations context "
        "(pass the parameters or a PolicyContext with minDuration/mu)");
  }
}

}  // namespace

PolicyContext PolicyContext::forInstance(const Instance& instance,
                                         std::uint64_t seed) {
  PolicyContext context;
  // One pass for both extremes: the same values minDuration() and
  // durationRatio() give, for a third of their walks over the items.
  if (!instance.empty()) {
    Time lo = kTimeInfinity;
    Time hi = 0;
    for (const Item& r : instance.items()) {
      lo = std::min(lo, r.duration());
      hi = std::max(hi, r.duration());
    }
    context.minDuration = lo;
    context.mu = hi / lo;
  }
  context.seed = seed;
  return context;
}

std::string policySpecHelp() {
  return
      "valid policy specs (defaults from the PolicyContext in [brackets]):\n"
      "  ff                    First Fit\n"
      "  bf                    Best Fit\n"
      "  wf                    Worst Fit\n"
      "  nf                    Next Fit\n"
      "  rf(seed=N)            Random Fit [seed=context seed]\n"
      "  hybrid-ff(classes=N)  Hybrid First Fit [classes=8]\n"
      "  cdt-ff(rho=X)         classify-by-departure-time FF "
      "[rho=sqrt(mu)*Delta]  (alias: cdt)\n"
      "  cd-ff(base=X,alpha=Y) classify-by-duration FF "
      "[known-durations optimum]  (alias: cd)\n"
      "  combined-ff(base=X,alpha=Y,rho-factor=Z) combined classify FF "
      "[known-durations optimum]\n"
      "  min-ext               minimum rental extension  (alias: minext)\n"
      "  dep-bf                departure-aligned Best Fit\n";
}

PolicyPtr makePolicy(const std::string& spec, const PolicyContext& context) {
  ParsedSpec parsed = parseSpec(spec);
  const std::string& name = parsed.name;

  if (name == "ff") {
    parsed.finish();
    return std::make_unique<FirstFitPolicy>();
  }
  if (name == "bf") {
    parsed.finish();
    return std::make_unique<BestFitPolicy>();
  }
  if (name == "wf") {
    parsed.finish();
    return std::make_unique<WorstFitPolicy>();
  }
  if (name == "nf") {
    parsed.finish();
    return std::make_unique<NextFitPolicy>();
  }
  if (name == "rf") {
    std::uint64_t seed = parsed.has("seed") ? parsed.getUint("seed")
                                            : context.seed;
    parsed.finish();
    return std::make_unique<RandomFitPolicy>(seed);
  }
  if (name == "hybrid-ff") {
    int classes = parsed.has("classes")
                      ? static_cast<int>(parsed.getUint("classes"))
                      : 8;
    parsed.finish();
    if (classes < 1) parsed.fail("'classes' must be at least 1");
    return std::make_unique<HybridFirstFitPolicy>(classes);
  }
  if (name == "cdt-ff" || name == "cdt") {
    if (parsed.has("rho")) {
      double rho = parsed.getDouble("rho");
      parsed.finish();
      return std::make_unique<ClassifyByDepartureFF>(rho);
    }
    parsed.finish();
    requireDurations(parsed, context);
    return std::make_unique<ClassifyByDepartureFF>(
        ClassifyByDepartureFF::withKnownDurations(context.minDuration,
                                                  context.mu));
  }
  if (name == "cd-ff" || name == "cd") {
    if (parsed.has("base") || parsed.has("alpha")) {
      double base = parsed.getDouble("base");
      double alpha = parsed.getDouble("alpha");
      parsed.finish();
      return std::make_unique<ClassifyByDurationFF>(base, alpha);
    }
    parsed.finish();
    requireDurations(parsed, context);
    return std::make_unique<ClassifyByDurationFF>(
        ClassifyByDurationFF::withKnownDurations(context.minDuration,
                                                 context.mu));
  }
  if (name == "combined-ff") {
    if (parsed.has("base") || parsed.has("alpha")) {
      double base = parsed.getDouble("base");
      double alpha = parsed.getDouble("alpha");
      double rhoFactor =
          parsed.has("rho-factor") ? parsed.getDouble("rho-factor") : 1.0;
      parsed.finish();
      return std::make_unique<CombinedClassifyFF>(base, alpha, rhoFactor);
    }
    parsed.finish();
    requireDurations(parsed, context);
    return std::make_unique<CombinedClassifyFF>(
        CombinedClassifyFF::withKnownDurations(context.minDuration,
                                               context.mu));
  }
  if (name == "min-ext" || name == "minext") {
    parsed.finish();
    return std::make_unique<MinExtensionPolicy>();
  }
  if (name == "dep-bf") {
    parsed.finish();
    return std::make_unique<DepartureAlignedBestFit>();
  }
  parsed.fail("unknown policy '" + name + "'");
}

std::vector<PolicyPtr> nonClairvoyantRoster(std::uint64_t seed) {
  PolicyContext context;
  context.seed = seed;
  std::vector<PolicyPtr> roster;
  for (const char* spec : {"ff", "bf", "wf", "nf", "hybrid-ff", "rf"}) {
    roster.push_back(makePolicy(spec, context));
  }
  return roster;
}

std::vector<PolicyPtr> clairvoyantRoster(Time minDuration, double mu) {
  PolicyContext context;
  context.minDuration = minDuration;
  context.mu = mu;
  std::vector<PolicyPtr> roster;
  for (const char* spec : {"cdt-ff", "cd-ff", "combined-ff"}) {
    roster.push_back(makePolicy(spec, context));
  }
  return roster;
}

std::vector<PolicyPtr> fullRoster(Time minDuration, double mu,
                                  std::uint64_t seed) {
  std::vector<PolicyPtr> roster = nonClairvoyantRoster(seed);
  for (PolicyPtr& p : clairvoyantRoster(minDuration, mu)) {
    roster.push_back(std::move(p));
  }
  return roster;
}

}  // namespace cdbp
