// Building blocks shared by the three placement engines: the batch
// simulator (simulator.cpp), the streaming engine (streaming.cpp) and the
// sharded engine (sharded.cpp). All three commit a placement through the
// same kernel (commitPlacement), validate items and announcements through
// the same checks, and the two incremental engines replay the batch
// timeline order — departures in (time, id) order before each arrival,
// from one DepartureQueue — and maintain the incremental Proposition 3
// bound the same way. Sharing the exact code is what makes their
// placements, lb3 doubles and drain orders bitwise identical rather than
// merely equivalent.
//
// This header is an implementation detail of the engines, not public API:
// nothing outside src/sim and its unit tests should include it.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/epsilon.hpp"
#include "core/item.hpp"
#include "core/types.hpp"
#include "online/policy.hpp"
#include "sim/bin_manager.hpp"
#include "sim/placement_view.hpp"
#include "sim/trace.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace cdbp::stream_internal {

/// One pending departure per arrived-but-not-departed item. Popped in
/// (time, id) order — the batch timeline's sort key, under which departures
/// precede arrivals at the same instant and simultaneous departures drain
/// in item-id order — so bin levels evolve through the identical sequence
/// of floating-point updates as in simulateOnline.
struct PendingDeparture {
  Time time;
  ItemId item;
  BinId bin;
  Size size;
};

/// The pending departures of one engine, popped in (time, id) order.
///
/// A monotone radix heap over the order-preserving bits of the departure
/// double. Clairvoyance makes it monotone: an engine pushes an item's
/// departure when the item arrives, and that departure is later than the
/// arrival, which is at or after every departure already popped. So no
/// push ever lies below the last popped key, and each entry only moves
/// towards the lowest bucket — a bounded number of moves over 64 key bits,
/// against a binary heap's O(log n) cache misses per push and per pop.
///
/// Layout: `last_` is the key of the last refill's minimum. Bucket b >= 1
/// holds the keys whose highest bit differing from `last_` is bit b - 1,
/// so lower buckets hold smaller keys. Entries whose key equals `last_`
/// wait in `ready_`, sorted by id (the next pop at the back). A refill
/// takes the lowest non-empty bucket, makes its minimum the new `last_`
/// and redistributes the bucket into lower ones. Every bucket tracks its
/// minimum key, so nextTime() answers without a refill: a refill on peek
/// would raise `last_` above what the caller may still push.
///
/// Buckets are chains of fixed-size blocks drawn from one free list, so
/// the blocks held follow the peak of live entries, not the sum of every
/// bucket's own peak. -0.0 and +0.0 share a key and drain by id, as they
/// compare equal under the (time, id) order.
class DepartureQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Adds a departure. Its time must not precede the last popped time.
  void push(const PendingDeparture& entry) {
    const std::uint64_t key = keyOf(entry.time);
    CDBP_DCHECK(key >= last_, "DepartureQueue::push: time ", entry.time,
                " precedes the last popped departure");
    ++size_;
    if (key == last_) {
      ready_.insert(std::upper_bound(ready_.begin(), ready_.end(), entry,
                                     laterId),
                    entry);
      return;
    }
    append(bucketOf(key), key, entry);
  }

  /// The earliest pending departure time; the queue must not be empty.
  /// Leaves the queue as it is.
  Time nextTime() const {
    CDBP_DCHECK(!empty(), "DepartureQueue::nextTime on an empty queue");
    if (!ready_.empty()) return ready_.back().time;
    return timeOf(buckets_[lowestBucket()].minKey);
  }

  /// Removes and returns the (time, id)-least departure; the queue must
  /// not be empty.
  PendingDeparture pop() {
    CDBP_DCHECK(!empty(), "DepartureQueue::pop on an empty queue");
    if (ready_.empty()) refill();
    PendingDeparture out = ready_.back();
    ready_.pop_back();
    --size_;
    return out;
  }

  /// Bytes held: every block ever allocated plus the ready list. O(1).
  std::size_t residentBytes() const {
    return blocks_.size() * sizeof(Block) +
           ready_.capacity() * sizeof(PendingDeparture);
  }

 private:
  static constexpr std::size_t kBlockEntries = 256;
  static constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

  struct Block {
    Block* next;
    PendingDeparture entries[kBlockEntries];
  };

  struct Bucket {
    Block* head = nullptr;  // the newest block; every other one is full
    std::size_t count = 0;
    std::uint64_t minKey = 0;
  };

  // Order-preserving: a < b as doubles iff keyOf(a) < keyOf(b), with -0.0
  // folded onto +0.0. Times are finite, so NaN patterns never occur.
  static std::uint64_t keyOf(Time t) {
    if (t == 0) t = 0.0;
    const auto bits = std::bit_cast<std::uint64_t>(t);
    return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
  }

  static Time timeOf(std::uint64_t key) {
    return std::bit_cast<Time>((key & kSignBit) != 0 ? key & ~kSignBit
                                                     : ~key);
  }

  static bool laterId(const PendingDeparture& a, const PendingDeparture& b) {
    return a.item > b.item;
  }

  // Bucket of a key above last_: one past its highest bit differing from
  // last_, in [1, 64].
  std::size_t bucketOf(std::uint64_t key) const {
    return static_cast<std::size_t>(64 - std::countl_zero(key ^ last_));
  }

  std::size_t lowestBucket() const {
    return static_cast<std::size_t>(std::countr_zero(nonEmpty_)) + 1;
  }

  void append(std::size_t b, std::uint64_t key, const PendingDeparture& entry) {
    Bucket& bucket = buckets_[b];
    const std::size_t fill = bucket.count % kBlockEntries;
    if (fill == 0) {
      Block* block = takeBlock();
      block->next = bucket.head;
      bucket.head = block;
    }
    bucket.head->entries[fill] = entry;
    if (bucket.count == 0 || key < bucket.minKey) bucket.minKey = key;
    ++bucket.count;
    nonEmpty_ |= std::uint64_t{1} << (b - 1);
  }

  void refill() {
    const std::size_t b = lowestBucket();
    Bucket source = buckets_[b];
    buckets_[b] = Bucket{};
    nonEmpty_ &= ~(std::uint64_t{1} << (b - 1));
    last_ = source.minKey;
    // Every entry moves to ready_ or to a bucket below b: it agrees with
    // the new last_ on every bit from b - 1 up.
    std::size_t fill = (source.count - 1) % kBlockEntries + 1;
    Block* block = source.head;
    while (block != nullptr) {
      for (std::size_t i = 0; i < fill; ++i) {
        const PendingDeparture& entry = block->entries[i];
        const std::uint64_t key = keyOf(entry.time);
        if (key == last_) {
          ready_.push_back(entry);
        } else {
          append(bucketOf(key), key, entry);
        }
      }
      Block* next = block->next;
      block->next = free_;
      free_ = block;
      block = next;
      fill = kBlockEntries;
    }
    if (ready_.size() > 1) std::sort(ready_.begin(), ready_.end(), laterId);
  }

  Block* takeBlock() {
    if (free_ == nullptr) {
      blocks_.push_back(std::make_unique<Block>());
      return blocks_.back().get();
    }
    Block* block = free_;
    free_ = block->next;
    return block;
  }

  std::uint64_t last_ = 0;
  std::uint64_t nonEmpty_ = 0;  // bit b - 1 set iff bucket b is non-empty
  std::size_t size_ = 0;
  std::array<Bucket, 65> buckets_{};  // index 0 unused: ready_ plays it
  std::vector<PendingDeparture> ready_;  // key == last_, id-descending
  Block* free_ = nullptr;
  std::vector<std::unique_ptr<Block>> blocks_;  // owns every block
};

/// Incremental mirror of StepFunction::ceilIntegral(kSizeEps) over the
/// running total-size profile S(t): each event first settles the segment
/// since the previous event — skipping near-empty segments and snapping
/// near-integer levels, exactly as the batch bound does — then applies the
/// item's size delta. O(1) state; the price is that the running level is a
/// long alternating FP sum, so the result matches the batch bound to
/// accumulation order, not bitwise.
class IncrementalLb3 {
 public:
  void onEvent(Time t, double delta) {
    if (level_ > kSizeEps && t > last_) {
      double nearest = std::round(level_);
      double value =
          (std::fabs(level_ - nearest) <= kSizeEps) ? nearest : level_;
      total_ += std::ceil(value) * (t - last_);
    }
    last_ = t;
    level_ += delta;
  }

  double total() const { return total_; }

 private:
  double level_ = 0;
  double total_ = 0;
  Time last_ = 0;
};

/// The model checks every engine applies to an item it did not get from a
/// validated Instance: finite times, departure > arrival, size in (0, 1].
/// Throws std::invalid_argument, prefixing the message with `engine`.
inline void validateItem(const char* engine, ItemId id, Size size,
                         Time arrival, Time departure) {
  if (!std::isfinite(arrival) || !std::isfinite(departure)) {
    throw std::invalid_argument(std::string(engine) + ": item " +
                                std::to_string(id) + " has a non-finite time");
  }
  if (!(departure > arrival)) {
    throw std::invalid_argument(std::string(engine) + ": item " +
                                std::to_string(id) +
                                " departs at or before its arrival");
  }
  if (!std::isfinite(size) || !(size > 0) || lt(kBinCapacity, size)) {
    throw std::invalid_argument(std::string(engine) + ": item " +
                                std::to_string(id) +
                                " has size outside (0, 1]");
  }
}

/// Applies an `announce` hook (SimOptions/StreamOptions/ShardedOptions):
/// returns what the policy is shown for `item`. Only the departure may
/// change; anything else throws std::logic_error naming `options`.
inline Item announceItem(const std::function<Item(const Item&)>& announce,
                         const Item& item, const char* options) {
  if (!announce) return item;
  Item announced = announce(item);
  if (announced.id != item.id || announced.size != item.size ||
      announced.arrival() != item.arrival()) {
    throw std::logic_error(std::string(options) +
                           "::announce may only perturb the departure time");
  }
  return announced;
}

/// What commitPlacement reports: the decision record and the capacity
/// probes the policy's view counted.
struct Committed {
  PlacementRecord record;
  std::size_t probes = 0;
};

/// Throws the std::logic_error for a policy that chose a closed bin or one
/// without room for the item; out of line, off the per-item path.
[[noreturn]] inline void rejectPlacement(const OnlinePolicy& policy,
                                         ItemId item, BinId bin,
                                         bool binOpen) {
  if (!binOpen) {
    throw std::logic_error(policy.name() + " placed item " +
                           std::to_string(item) + " in closed bin " +
                           std::to_string(bin));
  }
  throw std::logic_error(policy.name() + " overfilled bin " +
                         std::to_string(bin) + " with item " +
                         std::to_string(item));
}

/// The one commit path of every engine. Shows `announced` to the policy
/// (departures up to its arrival already drained), opens the chosen new
/// bin or checks that the chosen bin is open and has room, adds the item
/// and records the per-placement telemetry. `announced` carries the true
/// id, size and arrival (announceItem guarantees it), so only its
/// departure may differ from the item the system evolves with. Throws
/// std::logic_error when the policy picks a closed or overfilled bin.
/// Forced inline: it is the body of every engine's per-item loop, and the
/// compiler's size heuristics otherwise leave it an out-of-line call.
[[gnu::always_inline]] inline Committed commitPlacement(
    BinManager& bins, OnlinePolicy& policy, const Item& announced) {
  const Time now = announced.arrival();
  PlacementView view(bins, now);
  const PlacementDecision decision = policy.place(view, announced);
  Committed out;
  PlacementRecord& record = out.record;
  record.item = announced.id;
  record.time = now;
  record.openedNewBin = decision.bin == kNewBin;
  // The state the policy decided against: the bin this item opens is not
  // counted.
  record.openBins = bins.openCount();
  BinId target = decision.bin;
  if (record.openedNewBin) {
    target = bins.openBin(decision.category, now);
    CDBP_TELEM_COUNT("sim.placements_new_bin", 1);
  } else {
    CDBP_TELEM_COUNT("sim.placements_existing_bin", 1);
    // Validation re-check: wouldFit is the uncounted twin of fits(), so
    // sim.fit_checks measures policy-issued queries only.
    if (!bins.wouldFit(target, announced.size)) {
      rejectPlacement(policy, announced.id, target, bins.info(target).open);
    }
  }
  const BinManager::BinInfo& bin = bins.info(target);
  record.bin = target;
  record.category = bin.category;
  record.binLevelBefore = bin.level;
  bins.addItem(target, announced.size);
  out.probes = view.probes();
  CDBP_TELEM_COUNT("sim.events_processed", 1);
  CDBP_TELEM_HIST("sim.item_size_permille", announced.size * 1000.0);
  return out;
}

}  // namespace cdbp::stream_internal
