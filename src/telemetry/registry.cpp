#include "telemetry/registry.hpp"

#include <algorithm>
#include <array>

#include "telemetry/clock.hpp"

namespace cdbp::telemetry {

namespace {

// Callers hold the registry mutex; the map reference arrives pre-guarded
// (taking the lock in here would hide the caller's lock requirement from
// the thread-safety analysis).
template <typename Map>
auto& findOrCreate(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name),
                     std::make_unique<typename Map::mapped_type::element_type>())
             .first;
  }
  return *it->second;
}

// Which owned slots (1..kSlots-1) have a live owner. Leaked like the
// global registry, so threads that exit during static destruction can
// still return their slot.
struct SlotTable {
  Mutex mu;
  std::array<bool, kSlots> taken CDBP_GUARDED_BY(mu) = {};
};

SlotTable& slotTable() {
  static SlotTable* table = new SlotTable();
  return *table;
}

// Returns the owning thread's slot at thread exit. Metric updates from
// thread-exit code that runs after this destructor take the shared slot.
struct SlotOwner {
  std::uint32_t slot = 0;

  ~SlotOwner() {
    detail::tlsSlot = 0;
    if (slot == 0) return;
    SlotTable& table = slotTable();
    MutexLock lock(table.mu);
    table.taken[slot] = false;
  }
};

thread_local SlotOwner slotOwner;

}  // namespace

namespace detail {

std::uint32_t claimSlot() noexcept {
  std::uint32_t slot = 0;
  {
    SlotTable& table = slotTable();
    MutexLock lock(table.mu);
    for (std::uint32_t s = 1; s < kSlots; ++s) {
      if (!table.taken[s]) {
        table.taken[s] = true;
        slot = s;
        break;
      }
    }
  }
  slotOwner.slot = slot;  // first use constructs it and registers its exit
  tlsSlot = slot;
  return slot;
}

}  // namespace detail

std::uint64_t RegistrySnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

GaugeSnapshot RegistrySnapshot::gauge(std::string_view name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return {};
}

HistogramSnapshot RegistrySnapshot::histogram(std::string_view name) const {
  for (const auto& [n, v] : histograms) {
    if (n == name) return v;
  }
  return {};
}

std::vector<std::pair<std::string, std::uint64_t>> diffCounters(
    const RegistrySnapshot& before, const RegistrySnapshot& after) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, value] : after.counters) {
    std::uint64_t prior = before.counter(name);
    if (value > prior) out.emplace_back(name, value - prior);
  }
  return out;
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // leaked: outlives all users
  return *instance;
}

Counter& Registry::counter(std::string_view name) {
  MutexLock lock(mu_);
  return findOrCreate(counters_, name);
}

Gauge& Registry::gauge(std::string_view name) {
  MutexLock lock(mu_);
  return findOrCreate(gauges_, name);
}

Histogram& Registry::histogram(std::string_view name) {
  MutexLock lock(mu_);
  return findOrCreate(histograms_, name);
}

RegistrySnapshot Registry::snapshot() const {
  MutexLock lock(mu_);
  RegistrySnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, GaugeSnapshot{g->value(), g->max()});
  }
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.count = h->count();
    hs.sum = h->sum();
    hs.min = h->min();
    hs.max = h->max();
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      std::uint64_t n = h->bucketCount(b);
      if (n > 0) hs.buckets.emplace_back(b, n);
    }
    snap.histograms.emplace_back(name, std::move(hs));
  }
  return snap;
}

void Registry::reset() {
  MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

ScopedTimer::ScopedTimer(Histogram& sink)
    : sink_(&sink), startNanos_(monotonicNanos()) {}

ScopedTimer::~ScopedTimer() {
  std::uint64_t end = monotonicNanos();
  sink_->record(end >= startNanos_ ? end - startNanos_ : 0);
}

}  // namespace cdbp::telemetry
