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

// Workers are per-shard FIFO loops, so more shards than this only adds
// queue bookkeeping; a backstop against absurd --threads values.
constexpr std::size_t kMaxShards = 64;

// One epoch's worth of arrivals, packed by the feed thread into per-shard
// structure-of-arrays slices backed by the buffer's arena. Workers read
// their slice only; the buffer returns to the free pool when the last
// shard releases it (publication ordered by the shard queue mutexes on the
// way in and releaseMutex on the way out).
struct Slice {
  ItemId* ids = nullptr;
  Size* sizes = nullptr;
  Time* arrivals = nullptr;
  Time* departures = nullptr;          // true departures (drive the system)
  Time* announcedDepartures = nullptr; // what the policy is shown
  std::size_t count = 0;
};

struct EpochBuffer {
  MonotonicArena arena;
  std::vector<Slice> slices;  // indexed by shard
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

  // Feed-side Proposition 3 bound: the same departure queue and the same
  // accumulator code as StreamEngine, so the double is bitwise identical.
  IncrementalLb3 lb3;
  DepartureQueue lb3Pending;

  // Epoch buffer pool: owned here, cycled feed -> shards -> free list.
  Mutex bufMutex;
  std::condition_variable_any bufAvailable;
  std::vector<std::unique_ptr<EpochBuffer>> allBuffers CDBP_GUARDED_BY(bufMutex);
  std::vector<EpochBuffer*> freeBuffers CDBP_GUARDED_BY(bufMutex);
  std::size_t buffersHandedOut CDBP_GUARDED_BY(bufMutex) = 0;

  // First worker error wins; later slices become cheap no-ops but still
  // release their buffers so the feed thread can never block forever.
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

    if (options.computeLowerBound) {
      // Identical event order to StreamEngine: departures due at or
      // before this arrival first, then the arrival's size delta.
      while (!lb3Pending.empty() &&
             lb3Pending.nextTime() <= item.arrival()) {
        const PendingDeparture dep = lb3Pending.pop();
        lb3.onEvent(dep.time, -dep.size);
      }
      lb3.onEvent(item.arrival(), item.size);
      lb3Pending.push({item.departure(), item.id, 0, item.size});
      result.peakOpenItems =
          std::max(result.peakOpenItems, lb3Pending.size());
    }

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

  EpochBuffer* acquireBuffer() {
    MutexLock lock(bufMutex);
    while (freeBuffers.empty() &&
           buffersHandedOut >= options.maxEpochsInFlight) {
      bufAvailable.wait(bufMutex);
    }
    EpochBuffer* buf;
    if (!freeBuffers.empty()) {
      buf = freeBuffers.back();
      freeBuffers.pop_back();
    } else {
      allBuffers.push_back(std::make_unique<EpochBuffer>());
      buf = allBuffers.back().get();
    }
    ++buffersHandedOut;
    return buf;
  }

  void releaseBuffer(EpochBuffer* buf) {
    MutexLock lock(bufMutex);
    freeBuffers.push_back(buf);
    --buffersHandedOut;
    bufAvailable.notify_one();
  }

  void dispatchEpoch() {
    if (staged.empty()) return;
    ++result.epochs;
    EpochBuffer* buf = acquireBuffer();
    buf->arena.reset();
    buf->slices.assign(shards.size(), Slice{});

    for (const Staged& st : staged) ++buf->slices[st.shard].count;
    std::size_t nonEmpty = 0;
    for (Slice& slice : buf->slices) {
      if (slice.count == 0) continue;
      ++nonEmpty;
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
    staged.clear();

    buf->shardsLeft.store(nonEmpty, std::memory_order_relaxed);
    for (std::size_t s = 0; s < shards.size(); ++s) {
      if (buf->slices[s].count > 0) enqueue(*shards[s], buf);
    }
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
            processSlice(shard, buf->slices[shard.index]);
          } else {
            drainShard(shard);
          }
        } catch (...) {
          recordError(std::current_exception());
        }
      }
      if (buf != nullptr &&
          buf->shardsLeft.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        releaseBuffer(buf);
      }
    }
  }

  // The StreamEngine::place loop restricted to one key group: identical
  // drain order and the same commit kernel, hence identical validation and
  // counted policy queries (DESIGN.md §14).
  void processSlice(Shard& shard, const Slice& slice) {
    const bool capture = options.capturePlacements;
    for (std::size_t i = 0; i < slice.count; ++i) {
      const Time arrival = slice.arrivals[i];
      while (!shard.pending.empty() && shard.pending.nextTime() <= arrival) {
        popDeparture(shard);
      }

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
  }

  void popDeparture(Shard& shard) {
    const PendingDeparture dep = shard.pending.pop();
    if (shard.bins.removeItem(dep.bin, dep.size)) {
      shard.usageByBin[static_cast<std::size_t>(dep.bin)] =
          dep.time - shard.bins.info(dep.bin).openedAt;
      shard.closes.push_back({dep.time, dep.item});
    }
    CDBP_TELEM_COUNT("sim.events_processed", 1);
  }

  void drainShard(Shard& shard) {
    while (!shard.pending.empty()) popDeparture(shard);
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
    for (auto& shard : shards) enqueue(*shard, nullptr);
    pool->wait();
    rethrowIfFailed();

    if (options.computeLowerBound) {
      while (!lb3Pending.empty()) {
        const PendingDeparture dep = lb3Pending.pop();
        lb3.onEvent(dep.time, -dep.size);
      }
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
