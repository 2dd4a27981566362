// DepartureQueue against the binary heap it replaced. The engines drained
// pending departures from a std::push_heap/std::pop_heap min-heap on
// (time, id); that heap is kept here as the oracle, and every sequence of
// monotone pushes, pops and peeks must pop the identical (time, id, bin,
// size) entries, times compared bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/stream_internals.hpp"
#include "util/rng.hpp"

namespace cdbp {
namespace {

using stream_internal::DepartureQueue;
using stream_internal::PendingDeparture;

// The engines' former heap order: std::push_heap/pop_heap keep a max-heap
// under the comparator, so "later departure wins" makes a (time, id)
// min-heap.
bool laterDeparture(const PendingDeparture& a, const PendingDeparture& b) {
  if (a.time != b.time) return a.time > b.time;
  return a.item > b.item;
}

class HeapOracle {
 public:
  void push(const PendingDeparture& entry) {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), laterDeparture);
  }
  PendingDeparture pop() {
    std::pop_heap(heap_.begin(), heap_.end(), laterDeparture);
    PendingDeparture out = heap_.back();
    heap_.pop_back();
    return out;
  }
  Time nextTime() const { return heap_.front().time; }
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

 private:
  std::vector<PendingDeparture> heap_;
};

// Drives the queue and the oracle in lockstep.
class Lockstep {
 public:
  void push(Time time, ItemId id) {
    const PendingDeparture entry{time, id, static_cast<BinId>(id % 97),
                                 0.001 * static_cast<double>(id % 1000 + 1)};
    queue.push(entry);
    oracle.push(entry);
    peakLive = std::max(peakLive, queue.size());
  }

  // Pushes with a fresh id.
  void push(Time time) { push(time, nextId++); }

  void pop() {
    ASSERT_FALSE(queue.empty());
    ASSERT_FALSE(oracle.empty());
    const PendingDeparture got = queue.pop();
    const PendingDeparture want = oracle.pop();
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.time),
              std::bit_cast<std::uint64_t>(want.time))
        << "pop " << pops << ": got " << got.time << " want " << want.time;
    ASSERT_EQ(got.item, want.item) << "pop " << pops;
    ASSERT_EQ(got.bin, want.bin) << "pop " << pops;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.size),
              std::bit_cast<std::uint64_t>(want.size))
        << "pop " << pops;
    lastPopped = got.time;
    ++pops;
    ASSERT_EQ(queue.size(), oracle.size());
  }

  void peek() {
    ASSERT_FALSE(queue.empty());
    // -0.0 and +0.0 compare equal, as they do in the heap's order.
    ASSERT_EQ(queue.nextTime(), oracle.nextTime()) << "after pop " << pops;
  }

  void drain() {
    while (!oracle.empty()) {
      peek();
      pop();
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.size(), 0u);
  }

  DepartureQueue queue;
  HeapOracle oracle;
  ItemId nextId = 0;
  std::size_t pops = 0;
  std::size_t peakLive = 0;
  Time lastPopped = -std::numeric_limits<Time>::infinity();
};

// A random monotone workload: each push lies at or after the last popped
// time, drawn from a mix of exact repeats, a coarse grid and continuous
// offsets; pops and peeks interleave with pushes.
void runRandomMonotone(std::uint64_t seed, std::size_t steps, Time origin,
                       double scale) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  Rng rng(seed);
  Lockstep s;
  Time floor = origin;
  for (std::size_t step = 0; step < steps; ++step) {
    const std::uint64_t op = rng.uniformInt(0, 9);
    if (op < 5 || s.queue.empty()) {
      Time t;
      switch (rng.uniformInt(0, 3)) {
        case 0:
          t = floor;  // equal to the last popped time
          break;
        case 1:
          t = floor + scale * static_cast<double>(rng.uniformInt(1, 8));
          break;
        case 2:
          t = std::nextafter(floor, std::numeric_limits<Time>::infinity());
          break;
        default:
          t = floor + scale * 16.0 * rng.uniform01();
          break;
      }
      s.push(t);
    } else if (op < 8) {
      s.peek();
      s.pop();
      floor = s.lastPopped;
    } else {
      s.peek();
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  s.drain();
}

TEST(DepartureQueue, RandomMonotoneSequencesMatchTheHeap) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    runRandomMonotone(seed, 20000, 0.0, 1.0);
  }
}

TEST(DepartureQueue, RandomSequencesAcrossScalesMatchTheHeap) {
  runRandomMonotone(11, 5000, -1e6, 0.125);      // negative, then positive
  runRandomMonotone(12, 5000, -1e300, 1e299);    // 1e300-scale
  runRandomMonotone(13, 5000, 5e-324, 5e-324);   // subnormal steps
  runRandomMonotone(14, 5000, -1e-310, 1e-312);  // negative subnormals
}

TEST(DepartureQueue, EqualTimesPopInIdOrder) {
  Lockstep s;
  std::vector<ItemId> ids(600);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<ItemId>(i);
  }
  Rng rng(3);
  std::shuffle(ids.begin(), ids.end(), rng.engine());
  for (ItemId id : ids) s.push(7.5, id);
  for (ItemId id = 1000; id < 1100; ++id) s.push(3.25, id);
  for (int i = 0; i < 150; ++i) s.pop();
  // Pushes equal to the time being drained join it in id order.
  s.push(7.5, 5000);
  s.push(7.5, 4999);
  s.push(7.5, 0xFFFFFFFFu);
  s.drain();
}

TEST(DepartureQueue, NegativeTimesAndSignedZeros) {
  Lockstep s;
  s.push(0.0, 10);
  s.push(-0.0, 3);
  s.push(-0.0, 12);
  s.push(0.0, 1);
  s.push(-2.5, 20);
  s.push(-1e-300, 21);
  s.push(1e-300, 22);
  s.push(-std::numeric_limits<Time>::denorm_min(), 23);
  s.push(std::numeric_limits<Time>::denorm_min(), 24);
  s.peek();
  s.pop();  // -2.5
  s.pop();  // -1e-300
  s.peek();
  s.pop();  // -denorm_min
  s.peek();  // a signed zero, drained by id across both signs
  s.push(-0.0, 2);
  s.push(0.0, 11);
  s.drain();
}

TEST(DepartureQueue, ExtremeMagnitudes) {
  Lockstep s;
  const Time big = std::numeric_limits<Time>::max();
  for (Time t : {-big, -1e300, -1.0, 0.0, 1e-320, 1.0, 1e300, big}) {
    s.push(t);
    s.push(std::nextafter(t, big));
  }
  s.drain();
}

// The radix base must not move on a peek: a push just above the peeked
// time, made after the peek, must still pop in order.
TEST(DepartureQueue, PushJustAboveAPeekedTime) {
  Lockstep s;
  s.push(10.0);
  s.push(20.0);
  s.push(40.0);
  s.pop();  // 10: the base now sits at 10, the rest lie in buckets
  s.peek();  // 20
  s.push(std::nextafter(10.0, 20.0));
  s.push(15.0);
  s.peek();
  s.pop();
  s.pop();
  s.peek();
  s.push(std::nextafter(20.0, 0.0));
  s.push(20.0, 0);  // ties the peeked minimum with a smaller id
  s.drain();

  // Before the first pop, a peek must not fix the base either.
  Lockstep fresh;
  fresh.push(100.0);
  fresh.peek();
  fresh.push(-50.0);
  fresh.push(std::nextafter(100.0, 0.0));
  fresh.drain();
}

TEST(DepartureQueue, DrainToEmptyThenReuse) {
  Lockstep s;
  Time t = 1.0;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 700; ++i) s.push(t + 0.5 * (i % 13));
    s.drain();
    if (HasFatalFailure()) return;
    t += 100.0;
    // A push at exactly the last popped time is still monotone.
    s.push(s.lastPopped);
    s.drain();
  }
}

TEST(DepartureQueue, ResidentBytesFollowLiveEntries) {
  // Block storage: the queue never holds more than the peak of live
  // entries rounded up to whole blocks, plus one partly filled block per
  // non-empty bucket (64 at most), one block being redistributed by a
  // refill, and the ready list (a single tie here). A vector per bucket
  // would keep each bucket's own peak instead.
  constexpr std::size_t kBlockEntries = 256;
  constexpr std::size_t kBlockBytes =
      sizeof(void*) + kBlockEntries * sizeof(PendingDeparture);
  constexpr std::size_t kReadyBytes = 2 * sizeof(PendingDeparture);
  Lockstep s;
  EXPECT_EQ(s.queue.residentBytes(), 0u);
  Rng rng(9);
  Time floor = 0;
  std::size_t maxResident = 0;
  for (int phase = 0; phase < 6; ++phase) {
    const std::size_t target = phase % 2 == 0 ? 20000 : 500;
    while (s.queue.size() < target) s.push(floor + 1000.0 * rng.uniform01());
    while (s.queue.size() > target) {
      s.pop();
      if (HasFatalFailure()) return;
      floor = s.lastPopped;
    }
    const std::size_t bound =
        ((s.peakLive + kBlockEntries - 1) / kBlockEntries + 65) * kBlockBytes +
        kReadyBytes;
    EXPECT_LE(s.queue.residentBytes(), bound) << "phase " << phase;
    maxResident = std::max(maxResident, s.queue.residentBytes());
  }
  // Blocks are reused across phases, not added per phase.
  const std::size_t onePeak =
      ((20000 + kBlockEntries - 1) / kBlockEntries + 65) * kBlockBytes +
      kReadyBytes;
  EXPECT_LE(maxResident, onePeak);
  s.drain();
}

}  // namespace
}  // namespace cdbp
