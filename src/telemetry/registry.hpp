// Metrics registry: the repo-wide home for counters, gauges, log-bucketed
// histograms and scoped wall-clock timers (DESIGN.md §8).
//
// Design constraints, in order:
//   1. Zero cost when compiled out. `CDBP_TELEMETRY=0` turns every update
//      into an empty inline function and the CDBP_TELEM_* site macros into
//      nothing, so the hot placement paths carry no atomics, no clock
//      reads, and no registry lookups.
//   2. Thread-safe without locks or shared cache lines on the update
//      path. Counters and histograms keep one cache-line-aligned cell per
//      thread slot and add the cells up on read; a thread that owns its
//      slot updates its cell with a relaxed load plus store, and threads
//      without one share slot 0 through relaxed read-modify-writes
//      (TSan-clean under the `tsan` preset). The registry mutex is touched
//      only on first lookup of a name and when taking a snapshot; the slot
//      mutex at a thread's first update and at its exit.
//   3. Dependency-free. Standard library only.
//
// Instrumentation sites use the macros from telemetry.hpp; they resolve
// the name to a metric reference once (function-local static) and then hit
// the calling thread's cell directly. Metric references stay valid for the
// program's lifetime — the registry never deletes a metric.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

#ifndef CDBP_TELEMETRY
#define CDBP_TELEMETRY 1
#endif

namespace cdbp::telemetry {

/// Compile-time master switch (set via the CDBP_TELEMETRY CMake option).
inline constexpr bool kEnabled = CDBP_TELEMETRY != 0;

/// Cells per Counter and Histogram, one cache line apart (DESIGN.md §8.1).
/// Slot 0 is shared by threads that found no free slot; each of slots
/// 1..kSlots-1 has at most one live owner thread at a time.
inline constexpr std::size_t kSlots = 8;

namespace detail {

inline constexpr std::size_t kCacheLine = 64;
inline constexpr std::uint32_t kUnclaimed = ~std::uint32_t{0};

/// The calling thread's slot; kUnclaimed until its first update.
inline constinit thread_local std::uint32_t tlsSlot = kUnclaimed;

/// Claims a free owned slot for the calling thread, or the shared slot 0
/// when none is free, and returns it to the free set at thread exit.
/// Claim and release take one mutex, so a reused slot's next owner sees
/// every write of the owners before it. Runs once per thread.
std::uint32_t claimSlot() noexcept;

inline std::size_t threadSlot() noexcept {
  std::uint32_t slot = tlsSlot;
  if (slot == kUnclaimed) [[unlikely]] slot = claimSlot();
  return slot;
}

// Cell updates. The shared slot takes atomic read-modify-writes; an owned
// slot has a single writer, so a relaxed load plus store is exact and no
// instruction takes a lock prefix. Readers on other threads still load the
// cell atomically, so reads race with nothing.
inline void cellAdd(std::atomic<std::uint64_t>& cell, bool shared,
                    std::uint64_t delta) noexcept {
  if (shared) {
    cell.fetch_add(delta, std::memory_order_relaxed);
  } else {
    cell.store(cell.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
  }
}

/// Replaces the cell's value with `v` when `better(v, value)`.
template <typename Better>
inline void cellImprove(std::atomic<std::uint64_t>& cell, bool shared,
                        std::uint64_t v, Better better) noexcept {
  std::uint64_t seen = cell.load(std::memory_order_relaxed);
  if (shared) {
    while (better(v, seen) &&
           !cell.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  } else if (better(v, seen)) {
    cell.store(v, std::memory_order_relaxed);
  }
}

}  // namespace detail

/// Monotonically increasing event count: one cell per slot, added up on
/// read. Every cell only grows, so a read never returns less than an
/// earlier read on the same thread (until reset()).
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
#if CDBP_TELEMETRY
    const std::size_t slot = detail::threadSlot();
    detail::cellAdd(cells_[slot].value, slot == 0, delta);
#else
    (void)delta;
#endif
  }

  std::uint64_t value() const noexcept {
#if CDBP_TELEMETRY
    std::uint64_t total = 0;
    for (const Cell& c : cells_) {
      total += c.value.load(std::memory_order_relaxed);
    }
    return total;
#else
    return 0;
#endif
  }

  /// Zeroes every cell. Exact only while no other thread updates this
  /// counter: an owned cell's load-plus-store that straddles the reset
  /// writes back its old total plus the delta.
  void reset() noexcept {
#if CDBP_TELEMETRY
    for (Cell& c : cells_) c.value.store(0, std::memory_order_relaxed);
#endif
  }

 private:
  struct alignas(detail::kCacheLine) Cell {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Cell, kSlots> cells_{};
};

/// Instantaneous level (open-bin count, queue depth, ...). Tracks the
/// current value and the high-water mark since the last reset. One cell:
/// the value is the last one written, whichever thread wrote it.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
#if CDBP_TELEMETRY
    value_.store(v, std::memory_order_relaxed);
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
#else
    (void)v;
#endif
  }

  std::int64_t value() const noexcept {
#if CDBP_TELEMETRY
    return value_.load(std::memory_order_relaxed);
#else
    return 0;
#endif
  }

  std::int64_t max() const noexcept {
#if CDBP_TELEMETRY
    return max_.load(std::memory_order_relaxed);
#else
    return 0;
#endif
  }

  void reset() noexcept {
#if CDBP_TELEMETRY
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
#endif
  }

 private:
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Power-of-two (log2) bucketed histogram of non-negative integer samples
/// (durations in nanoseconds, scan counts, category indices, ...).
/// Bucket b holds samples v with std::bit_width(v) == b, i.e. bucket 0 is
/// exactly {0} and bucket b >= 1 covers [2^(b-1), 2^b - 1]. One cell per
/// slot, like Counter; reads add up (or take the min/max over) all cells.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  static std::size_t bucketIndex(std::uint64_t v) noexcept {
    return static_cast<std::size_t>(std::bit_width(v));
  }

  /// Inclusive lower bound of a bucket (0 for bucket 0).
  static std::uint64_t bucketFloor(std::size_t b) noexcept {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }

  void record(std::uint64_t v) noexcept {
#if CDBP_TELEMETRY
    const std::size_t slot = detail::threadSlot();
    const bool shared = slot == 0;
    Cell& c = cells_[slot];
    detail::cellAdd(c.buckets[bucketIndex(v)], shared, 1);
    detail::cellAdd(c.count, shared, 1);
    detail::cellAdd(c.sum, shared, v);
    detail::cellImprove(c.min, shared, v, std::less<>());
    detail::cellImprove(c.max, shared, v, std::greater<>());
#else
    (void)v;
#endif
  }

  std::uint64_t count() const noexcept {
#if CDBP_TELEMETRY
    return total(&Cell::count);
#else
    return 0;
#endif
  }

  std::uint64_t sum() const noexcept {
#if CDBP_TELEMETRY
    return total(&Cell::sum);
#else
    return 0;
#endif
  }

  std::uint64_t bucketCount(std::size_t b) const noexcept {
#if CDBP_TELEMETRY
    std::uint64_t n = 0;
    for (const Cell& c : cells_) {
      n += c.buckets[b].load(std::memory_order_relaxed);
    }
    return n;
#else
    (void)b;
    return 0;
#endif
  }

  /// Minimum recorded sample; 0 when empty.
  std::uint64_t min() const noexcept {
#if CDBP_TELEMETRY
    std::uint64_t v = kEmptyMin;
    for (const Cell& c : cells_) {
      v = std::min(v, c.min.load(std::memory_order_relaxed));
    }
    return v == kEmptyMin ? 0 : v;
#else
    return 0;
#endif
  }

  std::uint64_t max() const noexcept {
#if CDBP_TELEMETRY
    std::uint64_t v = 0;
    for (const Cell& c : cells_) {
      v = std::max(v, c.max.load(std::memory_order_relaxed));
    }
    return v;
#else
    return 0;
#endif
  }

  /// Clears every cell. Exact only while no other thread records into
  /// this histogram, for the reason given at Counter::reset.
  void reset() noexcept {
#if CDBP_TELEMETRY
    for (Cell& c : cells_) {
      for (auto& b : c.buckets) b.store(0, std::memory_order_relaxed);
      c.count.store(0, std::memory_order_relaxed);
      c.sum.store(0, std::memory_order_relaxed);
      c.min.store(kEmptyMin, std::memory_order_relaxed);
      c.max.store(0, std::memory_order_relaxed);
    }
#endif
  }

 private:
  static constexpr std::uint64_t kEmptyMin = ~std::uint64_t{0};
  struct alignas(detail::kCacheLine) Cell {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{kEmptyMin};
    std::atomic<std::uint64_t> max{0};
  };

  std::uint64_t total(std::atomic<std::uint64_t> Cell::*field) const noexcept {
    std::uint64_t n = 0;
    for (const Cell& c : cells_) {
      n += (c.*field).load(std::memory_order_relaxed);
    }
    return n;
  }

  std::array<Cell, kSlots> cells_{};
};

// What the cells cost (DESIGN.md §8.1): a counter is one line per slot,
// 512 B; a histogram cell's 69 words pad to 9 lines, 4.5 KiB in all.
static_assert(sizeof(Counter) == kSlots * detail::kCacheLine);
static_assert(sizeof(Histogram) == kSlots * 9 * detail::kCacheLine);

struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  /// (bucket index, count) for non-empty buckets only.
  std::vector<std::pair<std::size_t, std::uint64_t>> buckets;

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

struct GaugeSnapshot {
  std::int64_t value = 0;
  std::int64_t max = 0;
};

/// A consistent-enough point-in-time copy of every registered metric.
/// Names are sorted; concurrent updates during the copy may tear across
/// metrics but never within one atomic.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, GaugeSnapshot>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// Counter value by name; 0 when absent.
  std::uint64_t counter(std::string_view name) const;
  /// Gauge by name; zeros when absent.
  GaugeSnapshot gauge(std::string_view name) const;
  /// Histogram by name; empty when absent.
  HistogramSnapshot histogram(std::string_view name) const;
};

/// Counter increments between two snapshots (after - before), dropping
/// zero deltas. Counters present only in `after` count from zero.
std::vector<std::pair<std::string, std::uint64_t>> diffCounters(
    const RegistrySnapshot& before, const RegistrySnapshot& after);

class Registry {
 public:
  /// The process-wide registry every CDBP_TELEM_* site records into.
  static Registry& global();

  /// Finds or creates a metric. The returned reference is stable forever.
  Counter& counter(std::string_view name) CDBP_EXCLUDES(mu_);
  Gauge& gauge(std::string_view name) CDBP_EXCLUDES(mu_);
  Histogram& histogram(std::string_view name) CDBP_EXCLUDES(mu_);

  RegistrySnapshot snapshot() const CDBP_EXCLUDES(mu_);

  /// Zeroes every registered metric (names stay registered). For test and
  /// bench isolation only: a counter or histogram update running on
  /// another thread during the reset can write its pre-reset total back
  /// (Counter::reset).
  void reset() CDBP_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  // node-based maps: element addresses survive insertion. The mutex guards
  // the map structure only; the metric objects behind the unique_ptrs are
  // lock-free and updated outside mu_ (per-slot cells).
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      CDBP_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      CDBP_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      CDBP_GUARDED_BY(mu_);
};

/// Measures the wall-clock span of a scope and records it, in nanoseconds,
/// into a histogram (typically named "*_ns"). Compiled out together with
/// the rest of the instrumentation via CDBP_TELEM_SCOPED_TIMER.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& sink);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* sink_;
  std::uint64_t startNanos_;
};

}  // namespace cdbp::telemetry
