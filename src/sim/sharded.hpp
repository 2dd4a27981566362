// The epoch-pipelined sharded simulation engine (PlacementEngine::kSharded).
//
// run_many scales across experiment cells; this engine scales a SINGLE
// run. The paper's classification policies make that possible: CDT-FF's
// departure windows, CD-FF's duration classes, HybridFF's size classes and
// Combined-FF's class pairs are disjoint bin pools — two items with
// different category keys can never share a bin, and a placement decision
// reads only the open bins of the item's own key. The engine asks the
// policy for that key (OnlinePolicy::shardKey), assigns each key to one of
// a fixed set of shards, and runs every shard on its own worker thread
// with its own policy clone and its own indexed BinManager. Policies
// without a key (the global Any Fit family, the departure-fit ablations)
// run as a single shard — same machinery, one worker.
//
// The feed thread batches arrivals into fixed-size epochs, packs each
// epoch into arena-backed structure-of-arrays slices (one per shard, so a
// worker walks contiguous ids/sizes/arrivals/departures), and hands the
// slices to the workers through per-shard FIFO queues over the shared
// ThreadPool. Epochs are a pipelining unit, not a barrier: shard A may be
// epochs ahead of shard B, because nothing a shard does can affect another
// shard's decisions. A bounded pool of epoch buffers throttles the feed
// thread, keeping resident memory O(open state + epochs in flight), never
// O(total items). Every shard takes every epoch, so epochs finish in
// dispatch order, and the feed reuses the oldest buffer once it is done;
// that is when it folds the epoch into the Proposition 3 bound.
//
// Bit-identity (DESIGN.md §14): each worker replays exactly the
// StreamEngine loop restricted to its key group — departures drain in
// (time, global item id) order before each arrival, levels evolve through
// the same floating-point updates, policy queries see the same per-category
// state — so per-item placements equal the single-pool engines'. Global
// bin ids, totalUsage (summed in global bin-id order), maxOpenBins and the
// per-bin usage doubles are reconstructed afterwards from per-shard
// open/close logs merged in the batch timeline's (time, kind, id) order.
// tests/integration/sharded_differential_test.cpp pins all of it against
// kIndexed and kLinearScan.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/item.hpp"
#include "core/types.hpp"
#include "online/policy.hpp"

namespace cdbp {

struct ShardedOptions {
  /// Worker threads (= shard count in partitioned mode). 0 picks the
  /// hardware concurrency. Policies without a shardKey always run as one
  /// shard on one worker, whatever this says.
  std::size_t threads = 0;

  /// Arrivals per epoch: the feed->worker handoff granularity. Larger
  /// epochs amortize queue traffic; smaller ones bound latency and memory.
  std::size_t epochArrivals = 4096;

  /// Epoch buffers in flight before the feed thread blocks — the pipeline
  /// depth and the memory bound.
  std::size_t maxEpochsInFlight = 4;

  /// Maintain the incremental Proposition 3 bound (bitwise identical to
  /// StreamEngine's, same accumulator code). The shards log the departures
  /// they drain per epoch; the feed thread merges those logs with each
  /// epoch's arrivals when it takes the epoch's buffer back.
  bool computeLowerBound = false;

  /// Record the per-item bin assignment (global ids) in
  /// ShardedResult::binOf. Costs O(items) memory — leave off for
  /// bounded-memory throughput runs.
  bool capturePlacements = false;

  /// Same contract as SimOptions::announce: the policy (and the shard key)
  /// sees the perturbed departure, the system evolves with the true one;
  /// only the departure may change.
  std::function<Item(const Item&)> announce;
};

struct ShardedResult {
  std::size_t items = 0;
  /// Sum of per-bin usage (close - open) in global bin-id order —
  /// bit-identical to the batch Packing::totalUsage() double.
  Time totalUsage = 0;
  std::size_t binsOpened = 0;
  std::size_t maxOpenBins = 0;
  std::size_t categoriesUsed = 0;
  /// Incremental Proposition 3 bound (0 when disabled).
  double lb3 = 0;
  /// High-water mark of simultaneously pending departures, counted in the
  /// lb3 merge's event sequence (equal to StreamEngine's), so only
  /// meaningful when computeLowerBound is on; 0 otherwise.
  std::size_t peakOpenItems = 0;
  /// Shards actually used (1 for non-partitionable policies).
  std::size_t shards = 0;
  /// Epochs dispatched to the workers.
  std::size_t epochs = 0;
  /// item id -> global bin id (empty unless capturePlacements).
  std::vector<BinId> binOf;
};

/// Push-based sharded engine. Feed items in nondecreasing (arrival, id)
/// order — the batch timeline order — then finish() exactly once.
///
/// `prototype` must outlive the simulator. In partitioned mode every shard
/// runs its own clone(); in single-shard mode the prototype itself runs on
/// the worker (it is reset() first), so the caller must not touch it until
/// finish() returns.
///
/// Worker-side policy errors (closed bin, overfill: std::logic_error) and
/// feed-side model violations (std::invalid_argument) surface out of
/// feed() or finish(), whichever observes them first.
class ShardedSimulator {
 public:
  explicit ShardedSimulator(OnlinePolicy& prototype,
                            const ShardedOptions& options = {});
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  /// Validates the item (finite times, departure > arrival, size in
  /// (0, 1], nondecreasing (arrival, id)) and stages it for its shard.
  void feed(const Item& item);

  /// Flushes the trailing epoch, drains every shard, joins the pipeline
  /// and reconstructs the global result. The engine is spent afterwards.
  ShardedResult finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Pull-loop convenience over ShardedSimulator, assigning dense ids in
/// yield order exactly as simulateStream does. Declared here (not in
/// streaming.hpp) to keep the engines' headers independent; simulateStream
/// with StreamOptions::engine == kSharded routes through the same core.
class ArrivalSource;
ShardedResult simulateSharded(ArrivalSource& source, OnlinePolicy& prototype,
                              const ShardedOptions& options = {});

}  // namespace cdbp
