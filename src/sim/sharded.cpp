#include "sim/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "sim/bin_manager.hpp"
#include "sim/stream_internals.hpp"
#include "sim/streaming.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/telemetry.hpp"
#include "util/arena.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace cdbp {

namespace {

using stream_internal::announceItem;
using stream_internal::commitPlacement;
using stream_internal::Committed;
using stream_internal::DepartureQueue;
using stream_internal::IncrementalLb3;
using stream_internal::PendingDeparture;
using stream_internal::validateItem;

// A clock read for the stage counters; no read without telemetry.
std::uint64_t stageNanos() {
  if constexpr (telemetry::kEnabled) return telemetry::monotonicNanos();
  return 0;
}

// Workers are per-shard FIFO loops, so more shards than this only adds
// queue bookkeeping; a backstop against absurd --threads values.
constexpr std::size_t kMaxShards = 64;

// One epoch's worth of arrivals, packed by the feed thread into per-shard
// structure-of-arrays slices backed by the buffer's arena. A worker reads
// its slice's arrivals and, with the lower bound on, writes the departures
// it drains into the slice's log; nothing else. The feed takes the buffer
// back once shardsLeft reaches 0 (an acquire load that pairs with every
// worker's release decrement).
//
// Aligned to a cache line: neighbouring shards append to their logs
// concurrently, and the vector headers must not share a line.
struct alignas(64) Slice {
  ItemId* ids = nullptr;
  Size* sizes = nullptr;
  Time* arrivals = nullptr;
  Time* departures = nullptr;          // true departures (drive the system)
  Time* announcedDepartures = nullptr; // what the policy is shown
  std::size_t count = 0;
  // Lower bound on: every departure the shard drained for this epoch, in
  // its (time, id) drain order — exactly those in (A(e-1), A(e)], where
  // A(e) is the epoch's last arrival.
  std::vector<PendingDeparture> drained;
};

struct EpochBuffer {
  MonotonicArena arena;
  std::vector<Slice> slices;  // indexed by shard
  Time lastArrival = 0;       // A(e): every shard drains up to it
  // Lower bound on: the epoch's arrivals in feed order, for the merge.
  Time* arrivals = nullptr;
  Size* sizes = nullptr;
  std::size_t count = 0;
  std::atomic<std::size_t> shardsLeft{0};
};

// What a shard's open/close log remembers per bin event; merged across
// shards at finish() in the batch timeline's (time, kind, id) order to
// reconstruct global bin ids, the global-order usage sum and maxOpenBins.
struct OpenRec {
  Time time;     // opening arrival instant
  ItemId opener; // the item whose placement opened the bin
};
struct CloseRec {
  Time time;    // closing departure instant
  ItemId closer;
};

}  // namespace

struct ShardedSimulator::Impl {
  // One shard: one key group's bins, policy and pending departures, driven
  // by exactly one worker task at a time (the running flag below), so the
  // hot-path state needs no locking of its own.
  struct Shard {
    explicit Shard(std::size_t indexIn) : index(indexIn) {}

    const std::size_t index;
    BinManager bins{/*indexed=*/true};
    PolicyPtr owned;           // clone (null in single-shard fallback)
    OnlinePolicy* policy = nullptr;
    DepartureQueue pending;                 // (time, global id) order
    std::vector<Time> usageByBin;           // local bin id -> usage at close
    std::vector<OpenRec> opens;             // local bin id -> open record
    std::vector<CloseRec> closes;
    std::vector<std::pair<ItemId, BinId>> placements;  // capture mode
    std::vector<PendingDeparture> finalDrained;  // the trailing drain's log

    // FIFO work queue: epoch buffers plus one trailing drain marker
    // (buffer == nullptr). `running` keeps at most one worker task alive
    // per shard; successive tasks hand the (unlocked) hot-path state over
    // through this mutex.
    Mutex mutex;
    std::deque<EpochBuffer*> queue CDBP_GUARDED_BY(mutex);
    bool running CDBP_GUARDED_BY(mutex) = false;
  };

  // Staged arrival, accumulated by feed() until the epoch is full.
  struct Staged {
    ItemId id;
    Size size;
    Time arrival;
    Time departure;
    Time announcedDeparture;
    std::uint32_t shard;
  };

  OnlinePolicy& prototype;
  ShardedOptions options;
  ShardedResult result;

  bool modeDecided = false;
  bool partitioned = false;
  std::vector<std::unique_ptr<Shard>> shards;
  std::unordered_map<long long, std::uint32_t> keyToShard;
  std::uint32_t nextShardRoundRobin = 0;

  std::unique_ptr<ThreadPool> pool;

  std::vector<Staged> staged;
  Time lastArrival = 0;
  ItemId lastId = 0;
  bool sawItem = false;
  ItemId maxId = 0;
  bool finished = false;

  // Feed-side Proposition 3 bound: StreamEngine's accumulator, fed the
  // same event sequence by merging the shards' departure logs with each
  // epoch's arrivals, so the double is bitwise identical. `liveItems`
  // counts arrived-but-not-departed items in that sequence.
  IncrementalLb3 lb3;
  std::size_t liveItems = 0;
  struct LogCursor {
    const PendingDeparture* next;
    const PendingDeparture* end;
  };
  std::vector<LogCursor> cursors;  // merge scratch, one per non-empty log

  // Epoch buffers, cycled feed -> shards -> feed. Only the feed thread
  // touches these two: buffers go out in dispatch order and come back
  // oldest first. Every shard takes every epoch and works through its
  // queue in order, so epochs finish in dispatch order too.
  std::vector<std::unique_ptr<EpochBuffer>> buffers;
  std::deque<EpochBuffer*> inFlight;
  // Signalled when a buffer's last shard finishes it.
  Mutex epochMutex;
  std::condition_variable_any epochDone;

  // First worker error wins; later slices become cheap no-ops but still
  // count down their buffers so the feed thread can never block forever.
  Mutex errMutex;
  std::exception_ptr firstError CDBP_GUARDED_BY(errMutex);
  std::atomic<bool> failed{false};

  Impl(OnlinePolicy& p, const ShardedOptions& o) : prototype(p), options(o) {
    if (options.epochArrivals == 0) options.epochArrivals = 1;
    if (options.maxEpochsInFlight == 0) options.maxEpochsInFlight = 1;
    staged.reserve(options.epochArrivals);
  }

  ~Impl() {
    // Joining the pool first is what makes destruction safe: workers may
    // still reference shards and buffers. Mark failed so queued slices
    // fall through fast.
    failed.store(true, std::memory_order_relaxed);
    pool.reset();
  }

  std::size_t configuredShardCount() const {
    std::size_t n = options.threads != 0
                        ? options.threads
                        : static_cast<std::size_t>(
                              std::thread::hardware_concurrency());
    if (n == 0) n = 1;
    return std::min(n, kMaxShards);
  }

  void recordError(std::exception_ptr error) {
    MutexLock lock(errMutex);
    if (!firstError) firstError = std::move(error);
    failed.store(true, std::memory_order_relaxed);
  }

  void rethrowIfFailed() {
    if (!failed.load(std::memory_order_relaxed)) return;
    MutexLock lock(errMutex);
    if (firstError) std::rethrow_exception(firstError);
  }

  // --- Mode decision (first item) -----------------------------------

  void decideMode(const Item& announced) {
    modeDecided = true;
    std::size_t count = 1;
    if (prototype.shardKey(announced).has_value()) {
      if (PolicyPtr probe = prototype.clone()) {
        partitioned = true;
        count = configuredShardCount();
      }
      // A key without clone() support cannot be replicated per shard;
      // fall back to the single-shard path silently — it is always
      // correct, just not parallel.
    }
    shards.reserve(count);
    for (std::size_t s = 0; s < count; ++s) {
      shards.push_back(std::make_unique<Shard>(s));
      Shard& shard = *shards.back();
      if (partitioned) {
        shard.owned = prototype.clone();
        shard.policy = shard.owned.get();
      } else {
        shard.policy = &prototype;
      }
      shard.policy->reset();
    }
    pool = std::make_unique<ThreadPool>(count);
    result.shards = count;
  }

  std::uint32_t shardOf(const Item& announced) {
    if (!partitioned) return 0;
    std::optional<long long> key = prototype.shardKey(announced);
    if (!key.has_value()) {
      throw std::logic_error(
          prototype.name() +
          ": shardKey must be engaged for all items or for none");
    }
    auto [it, inserted] = keyToShard.try_emplace(
        *key, static_cast<std::uint32_t>(nextShardRoundRobin));
    if (inserted) {
      nextShardRoundRobin = static_cast<std::uint32_t>(
          (nextShardRoundRobin + 1) % shards.size());
    }
    return it->second;
  }

  // --- Feed side ------------------------------------------------------

  void feed(const Item& item) {
    if (finished) {
      throw std::logic_error("ShardedSimulator: feed() after finish()");
    }
    validate(item);
    rethrowIfFailed();

    const Item announced =
        announceItem(options.announce, item, "ShardedOptions");
    if (!modeDecided) decideMode(announced);

    std::uint32_t shard = shardOf(announced);
    staged.push_back({item.id, item.size, item.arrival(), item.departure(),
                      announced.departure(), shard});
    ++result.items;
    maxId = std::max(maxId, item.id);

    if (staged.size() >= options.epochArrivals) dispatchEpoch();
  }

  void validate(const Item& item) {
    validateItem("simulateSharded", item.id, item.size, item.arrival(),
                 item.departure());
    if (sawItem && (item.arrival() < lastArrival ||
                    (item.arrival() == lastArrival && item.id <= lastId))) {
      throw std::invalid_argument(
          "simulateSharded: items must be fed in increasing (arrival, id) "
          "order (item " + std::to_string(item.id) + " at " +
          std::to_string(item.arrival()) + " after item " +
          std::to_string(lastId) + " at " + std::to_string(lastArrival) +
          ")");
    }
    lastArrival = item.arrival();
    lastId = item.id;
    sawItem = true;
  }

  // A fresh buffer while fewer than maxEpochsInFlight are out, else the
  // oldest one back.
  EpochBuffer* acquireBuffer() {
    if (inFlight.size() < options.maxEpochsInFlight) {
      buffers.push_back(std::make_unique<EpochBuffer>());
      buffers.back()->slices.resize(shards.size());
      return buffers.back().get();
    }
    return retireOldest();
  }

  // Waits until every shard is done with the oldest buffer in flight,
  // then folds its epoch into the lower bound. The merge runs without
  // epochMutex: the workers are done with the buffer.
  EpochBuffer* retireOldest() {
    EpochBuffer* buf = inFlight.front();
    inFlight.pop_front();
    const std::uint64_t waitStart = stageNanos();
    {
      MutexLock lock(epochMutex);
      while (buf->shardsLeft.load(std::memory_order_acquire) != 0) {
        epochDone.wait(epochMutex);
      }
    }
    const std::uint64_t mergeStart = stageNanos();
    CDBP_TELEM_COUNT("sim.sharded.feed_wait_ns", mergeStart - waitStart);
    rethrowIfFailed();  // a failed epoch's logs are incomplete
    if (options.computeLowerBound) {
      mergeEpoch(*buf);
      CDBP_TELEM_COUNT("sim.sharded.lb3_merge_ns", stageNanos() - mergeStart);
    }
    return buf;
  }

  void dispatchEpoch() {
    if (staged.empty()) return;
    ++result.epochs;
    EpochBuffer* buf = acquireBuffer();
    buf->arena.reset();
    for (Slice& slice : buf->slices) {
      slice.count = 0;
      slice.drained.clear();
    }

    for (const Staged& st : staged) ++buf->slices[st.shard].count;
    for (Slice& slice : buf->slices) {
      if (slice.count == 0) continue;
      slice.ids = buf->arena.allocate<ItemId>(slice.count);
      slice.sizes = buf->arena.allocate<Size>(slice.count);
      slice.arrivals = buf->arena.allocate<Time>(slice.count);
      slice.departures = buf->arena.allocate<Time>(slice.count);
      slice.announcedDepartures = buf->arena.allocate<Time>(slice.count);
      slice.count = 0;  // becomes the fill cursor below
    }
    for (const Staged& st : staged) {
      Slice& slice = buf->slices[st.shard];
      slice.ids[slice.count] = st.id;
      slice.sizes[slice.count] = st.size;
      slice.arrivals[slice.count] = st.arrival;
      slice.departures[slice.count] = st.departure;
      slice.announcedDepartures[slice.count] = st.announcedDeparture;
      ++slice.count;
    }
    buf->lastArrival = staged.back().arrival;
    buf->count = 0;
    if (options.computeLowerBound) {
      buf->count = staged.size();
      buf->arrivals = buf->arena.allocate<Time>(buf->count);
      buf->sizes = buf->arena.allocate<Size>(buf->count);
      for (std::size_t i = 0; i < buf->count; ++i) {
        buf->arrivals[i] = staged[i].arrival;
        buf->sizes[i] = staged[i].size;
      }
    }
    staged.clear();

    // Every shard takes every epoch, empty slices included, so that each
    // drains up to A(e) and the epochs finish in dispatch order.
    buf->shardsLeft.store(shards.size(), std::memory_order_relaxed);
    inFlight.push_back(buf);
    for (auto& shard : shards) enqueue(*shard, buf);
  }

  // Queues work for a shard and wakes its worker loop if idle. `buf` is
  // an epoch buffer, or nullptr for the trailing full drain.
  void enqueue(Shard& shard, EpochBuffer* buf) {
    bool start = false;
    {
      MutexLock lock(shard.mutex);
      shard.queue.push_back(buf);
      if (!shard.running) {
        shard.running = true;
        start = true;
      }
    }
    if (start) {
      pool->submit([this, &shard] { runShard(shard); });
    }
  }

  // --- Worker side ----------------------------------------------------

  void runShard(Shard& shard) {
    for (;;) {
      EpochBuffer* buf;
      {
        MutexLock lock(shard.mutex);
        if (shard.queue.empty()) {
          shard.running = false;
          return;
        }
        buf = shard.queue.front();
        shard.queue.pop_front();
      }
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          if (buf != nullptr) {
            processSlice(shard, *buf);
          } else {
            drainShard(shard);
          }
        } catch (...) {
          recordError(std::current_exception());
        }
      }
      // A failed slice still counts as done, so the feed never waits on it.
      if (buf != nullptr &&
          buf->shardsLeft.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        MutexLock lock(epochMutex);
        epochDone.notify_one();
      }
    }
  }

  // The StreamEngine::place loop restricted to one key group: identical
  // drain order and the same commit kernel, hence identical validation and
  // counted policy queries (DESIGN.md §14). The slice ends with a drain up
  // to the epoch's last arrival — the departures the shard's next
  // placement would drain first anyway — so its log covers the epoch.
  void processSlice(Shard& shard, EpochBuffer& buf) {
    Slice& slice = buf.slices[shard.index];
    std::vector<PendingDeparture>* log =
        options.computeLowerBound ? &slice.drained : nullptr;
    const bool capture = options.capturePlacements;
    for (std::size_t i = 0; i < slice.count; ++i) {
      const Time arrival = slice.arrivals[i];
      drainUpTo(shard, arrival, log);

      const Item announced(slice.ids[i], slice.sizes[i], arrival,
                           slice.announcedDepartures[i]);
      const Committed placed =
          commitPlacement(shard.bins, *shard.policy, announced);
      // Scan cost of this placement: the probes its view counted.
      CDBP_TELEM_HIST("sim.bins_scanned_per_placement", placed.probes);
      const BinId target = placed.record.bin;
      if (placed.record.openedNewBin) {
        shard.usageByBin.push_back(0);
        shard.opens.push_back({arrival, slice.ids[i]});
      }
      shard.pending.push(
          {slice.departures[i], slice.ids[i], target, slice.sizes[i]});
      if (capture) shard.placements.emplace_back(slice.ids[i], target);
    }
    drainUpTo(shard, buf.lastArrival, log);
  }

  void drainUpTo(Shard& shard, Time time,
                 std::vector<PendingDeparture>* log) {
    while (!shard.pending.empty() && shard.pending.nextTime() <= time) {
      popDeparture(shard, log);
    }
  }

  void popDeparture(Shard& shard, std::vector<PendingDeparture>* log) {
    const PendingDeparture dep = shard.pending.pop();
    if (log != nullptr) log->push_back(dep);
    if (shard.bins.removeItem(dep.bin, dep.size)) {
      shard.usageByBin[static_cast<std::size_t>(dep.bin)] =
          dep.time - shard.bins.info(dep.bin).openedAt;
      shard.closes.push_back({dep.time, dep.item});
    }
    CDBP_TELEM_COUNT("sim.events_processed", 1);
  }

  void drainShard(Shard& shard) {
    std::vector<PendingDeparture>* log =
        options.computeLowerBound ? &shard.finalDrained : nullptr;
    while (!shard.pending.empty()) popDeparture(shard, log);
  }

  // --- Lower-bound merge (feed thread) --------------------------------

  // Folds one epoch into the bound: its arrivals in feed order, each
  // preceded by the logged departures at or before it. A shard's log holds
  // exactly its departures in (A(e-1), A(e)], so this is StreamEngine's
  // event sequence and no departure is left over.
  void mergeEpoch(const EpochBuffer& buf) {
    cursors.clear();
    for (const Slice& slice : buf.slices) addCursor(slice.drained);
    for (std::size_t i = 0; i < buf.count; ++i) {
      mergeDepartures(buf.arrivals[i]);
      lb3.onEvent(buf.arrivals[i], buf.sizes[i]);
      ++liveItems;
      result.peakOpenItems = std::max(result.peakOpenItems, liveItems);
    }
    CDBP_DCHECK(cursors.empty(), "sharded lb3 merge: an epoch's log holds a "
                "departure after the epoch's last arrival");
  }

  void addCursor(const std::vector<PendingDeparture>& log) {
    if (!log.empty()) cursors.push_back({log.data(), log.data() + log.size()});
  }

  // Feeds the logged departures at or before `upTo` to the bound, k-way
  // merged in the DepartureQueue's (time, id) order. Each log is already
  // in that order; doubles compare -0.0 equal to +0.0, as the queue does.
  // A linear scan over the non-empty logs: O(shards) per departure, which
  // DESIGN.md §14 measures at 3 and 12 shards.
  void mergeDepartures(Time upTo) {
    while (!cursors.empty()) {
      std::size_t best = 0;
      for (std::size_t c = 1; c < cursors.size(); ++c) {
        const PendingDeparture& a = *cursors[c].next;
        const PendingDeparture& b = *cursors[best].next;
        if (a.time < b.time || (a.time == b.time && a.item < b.item)) {
          best = c;
        }
      }
      const PendingDeparture& dep = *cursors[best].next;
      if (!(dep.time <= upTo)) return;
      lb3.onEvent(dep.time, -dep.size);
      --liveItems;
      if (++cursors[best].next == cursors[best].end) {
        cursors[best] = cursors.back();
        cursors.pop_back();
      }
    }
  }

  // --- Finish & global reconstruction ---------------------------------

  ShardedResult finish() {
    if (finished) {
      throw std::logic_error("ShardedSimulator: finish() called twice");
    }
    finished = true;

    if (!modeDecided) {
      // Zero items: an empty result with one (unused) shard.
      result.shards = 0;
      return std::move(result);
    }

    dispatchEpoch();
    if (options.computeLowerBound) {
      // Reserved here, on the feed thread once the shards are idle, not by
      // each worker: glibc keeps a thread's freed blocks in that thread's
      // arena, and per-worker logs raised peak RSS with the shard count
      // (DESIGN.md §14).
      pool->wait();
      for (auto& shard : shards) {
        shard->finalDrained.reserve(shard->pending.size());
      }
    }
    for (auto& shard : shards) enqueue(*shard, nullptr);
    pool->wait();
    rethrowIfFailed();

    while (!inFlight.empty()) retireOldest();
    if (options.computeLowerBound) {
      const std::uint64_t mergeStart = stageNanos();
      cursors.clear();
      for (const auto& shard : shards) addCursor(shard->finalDrained);
      mergeDepartures(std::numeric_limits<Time>::infinity());
      CDBP_TELEM_COUNT("sim.sharded.lb3_merge_ns", stageNanos() - mergeStart);
      result.lb3 = lb3.total();
    }

    mergeShards();
    return std::move(result);
  }

  // Reconstructs the single-pool run's global view from the per-shard
  // logs. Bin open/close events merge in the batch timeline's
  // (time, kind, id) order — closes (departures) before opens (arrivals)
  // at equal instants — which is exactly the order the single-pool
  // engines open and close bins in. Walking opens in that order yields:
  //   * global bin ids (BinManager assigns ids in opening order),
  //   * totalUsage accumulated in global bin-id order — the addition
  //     order of Packing::totalUsage(), hence the identical double,
  //   * maxOpenBins as the running open count sampled after each open
  //     (the single-pool count only grows at opens, and every open is
  //     sampled by its own arrival there too).
  void mergeShards() {
    struct BinEvent {
      Time time;
      ItemId item;
      std::uint32_t shard;
      BinId localBin;
      std::uint8_t kind;  // 0 = close, 1 = open: departures drain first
    };
    std::size_t totalOpens = 0;
    for (const auto& shard : shards) totalOpens += shard->opens.size();

    std::vector<BinEvent> events;
    events.reserve(2 * totalOpens);
    for (const auto& shard : shards) {
      auto s = static_cast<std::uint32_t>(shard->index);
      for (std::size_t b = 0; b < shard->opens.size(); ++b) {
        events.push_back({shard->opens[b].time, shard->opens[b].opener, s,
                          static_cast<BinId>(b), 1});
      }
      for (const CloseRec& close : shard->closes) {
        events.push_back({close.time, close.closer, s, kNewBin, 0});
      }
    }
    std::sort(events.begin(), events.end(),
              [](const BinEvent& a, const BinEvent& b) {
                if (a.time != b.time) return a.time < b.time;
                if (a.kind != b.kind) return a.kind < b.kind;
                return a.item < b.item;
              });

    std::vector<std::vector<BinId>> localToGlobal;
    if (options.capturePlacements) {
      localToGlobal.resize(shards.size());
      for (const auto& shard : shards) {
        localToGlobal[shard->index].assign(shard->opens.size(), kUnassigned);
      }
    }

    Time totalUsage = 0;
    std::size_t running = 0;
    std::size_t maxOpen = 0;
    BinId nextGlobal = 0;
    for (const BinEvent& e : events) {
      if (e.kind == 1) {
        totalUsage +=
            shards[e.shard]->usageByBin[static_cast<std::size_t>(e.localBin)];
        if (options.capturePlacements) {
          localToGlobal[e.shard][static_cast<std::size_t>(e.localBin)] =
              nextGlobal;
        }
        ++nextGlobal;
        ++running;
        maxOpen = std::max(maxOpen, running);
      } else {
        --running;
      }
    }

    result.totalUsage = totalUsage;
    result.binsOpened = static_cast<std::size_t>(nextGlobal);
    result.maxOpenBins = maxOpen;
    // Each shard's BinManager set the process-wide gauge to its own local
    // count; leave the engine's merged peak and its drained level instead.
    CDBP_TELEM_GAUGE_SET("sim.open_bins", maxOpen);
    CDBP_TELEM_GAUGE_SET("sim.open_bins", 0);
    result.categoriesUsed = 0;
    for (const auto& shard : shards) {
      result.categoriesUsed += shard->bins.categoriesOpened();
    }
    if (options.capturePlacements) {
      result.binOf.assign(static_cast<std::size_t>(maxId) + 1, kUnassigned);
      for (const auto& shard : shards) {
        const auto& map = localToGlobal[shard->index];
        for (const auto& [item, localBin] : shard->placements) {
          result.binOf[item] = map[static_cast<std::size_t>(localBin)];
        }
      }
    }
  }
};

ShardedSimulator::ShardedSimulator(OnlinePolicy& prototype,
                                   const ShardedOptions& options)
    : impl_(std::make_unique<Impl>(prototype, options)) {}

ShardedSimulator::~ShardedSimulator() = default;

void ShardedSimulator::feed(const Item& item) { impl_->feed(item); }

ShardedResult ShardedSimulator::finish() { return impl_->finish(); }

ShardedResult simulateSharded(ArrivalSource& source, OnlinePolicy& prototype,
                              const ShardedOptions& options) {
  ShardedSimulator sim(prototype, options);
  StreamItem incoming;
  ItemId nextId = 0;
  while (source.next(incoming)) {
    if (nextId == std::numeric_limits<ItemId>::max()) {
      throw std::invalid_argument("simulateSharded: item id space exhausted");
    }
    sim.feed(Item(nextId++, incoming.size, incoming.arrival,
                  incoming.departure));
  }
  return sim.finish();
}

}  // namespace cdbp
