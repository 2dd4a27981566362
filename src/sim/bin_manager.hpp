// BasicBinManager: the open-bin state a packing policy sees, generic over
// a Resource model (sim/resource.hpp documents the concept).
//
// Bins are opened when they receive their first item and closed — forever —
// when their last active item departs (paper §5). Every open bin carries a
// policy-defined integer category: classification policies (classify-by-
// departure-time, classify-by-duration, Hybrid First Fit) only co-locate
// items of the same category, so the manager maintains per-category open
// lists in opening order.
//
// One manager serves every packing variant:
//   BasicBinManager<ScalarResource>   (alias BinManager) — the scalar
//       simulator and the 7 online policies, unchanged from PR 3.
//   BasicBinManager<VectorResource>   — the multidim module.
//   BasicBinManager<IntervalResource> — the offline First Fit passes
//       (append-only: bins never close, linear engine only).
//
// Contract violations (mutating a closed bin, releasing from an empty
// bin) are programming errors, not recoverable conditions: they abort via
// CDBP_CHECK in every build mode.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <vector>

#include "core/epsilon.hpp"
#include "core/types.hpp"
#include "sim/bin_search.hpp"
#include "sim/resource.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace cdbp {

/// Which placement machinery backs the PlacementView queries.
enum class PlacementEngine {
  /// Sublinear capacity-indexed search (bin_search.hpp); the default.
  kIndexed,
  /// The original linear open-list scans, retained as the reference the
  /// differential tests pin kIndexed against. Skips all index maintenance.
  kLinearScan,
  /// The epoch-pipelined multi-worker engine (sim/sharded.hpp): the bin
  /// pool partitions by the policy's category key and each partition runs
  /// on its own worker over an indexed BinManager. Scalar simulateOnline /
  /// simulateStream only; the multidim and flexible simulators reject it.
  kSharded,
};

template <typename R>
class BasicBinManager {
 public:
  using Resource = R;
  using Level = typename R::Level;
  using Demand = typename R::Demand;
  using Shape = typename R::Shape;

  /// `indexed` selects the placement engine: when true (the default) the
  /// manager maintains a BinSearchIndexT answering placement queries in
  /// O(log B); when false it skips all index maintenance and
  /// BasicPlacementView falls back to the linear open-list scans — the
  /// retained reference path differential tests pin the index against.
  /// Non-indexable resource models (IntervalResource) must pass false.
  /// `shape` carries the model's per-manager configuration (the dimension
  /// count for VectorResource; empty for the scalar model).
  explicit BasicBinManager(bool indexed = true, Shape shape = {})
      : shape_(shape), indexed_(indexed), index_(shape) {
    if constexpr (!R::kIndexable) {
      CDBP_CHECK(!indexed,
                 "BinManager: this resource model supports only the linear "
                 "engine (pass indexed = false)");
    }
  }

  struct BinInfo {
    BinId id = 0;
    int category = 0;
    Level level{};              ///< total demand currently in the bin
    std::size_t itemCount = 0;  ///< number of items currently in the bin
    Time openedAt = 0;
    bool open = false;
  };

  /// All open bins in opening order. Compacts the list first (closed ids
  /// leave it lazily), so a read is not safe concurrently with another
  /// read of the same manager. The reference is valid until the next
  /// mutation.
  const std::vector<BinId>& openBins() const {
    compact(open_);
    return open_.ids;
  }

  /// Open bins of one category in opening order (empty list if none).
  /// Compacts like openBins().
  const std::vector<BinId>& openBins(int category) const {
    static const std::vector<BinId> kEmpty;
    auto it = openByCategory_.find(category);
    if (it == openByCategory_.end()) return kEmpty;
    compact(it->second);
    return it->second.ids;
  }

  /// Metadata of a bin (open or closed).
  const BinInfo& info(BinId id) const {
    return bins_[static_cast<std::size_t>(id)];
  }

  /// Whether adding `demand` keeps the bin within capacity (R::fits).
  /// Under the scalar/vector online model, all already-placed items
  /// arrived no later than now, so the current level is the maximum future
  /// level and this single check certifies feasibility over the incoming
  /// item's whole stay; the interval model folds the stay into the
  /// predicate itself.
  ///
  /// Counts toward `sim.fit_checks`: this is the policy-visible probe (via
  /// BasicPlacementView::fits). Infrastructure re-checks must use wouldFit
  /// so the counter measures policy work only.
  bool fits(BinId id, const Demand& demand) const {
    CDBP_TELEM_COUNT("sim.fit_checks", 1);
    return wouldFit(id, demand);
  }

  /// Uncounted feasibility check for infrastructure use (the simulator's
  /// post-decision validation). Identical predicate to fits().
  bool wouldFit(BinId id, const Demand& demand) const {
    return info(id).open && R::fits(info(id).level, demand);
  }

  /// True when the sublinear placement index is maintained.
  bool indexed() const { return indexed_; }

  /// The placement index; only valid when indexed() is true.
  const BinSearchIndexT<R>& index() const { return index_; }

  /// The resource model's per-manager configuration.
  const Shape& shape() const { return shape_; }

  /// Total bins ever opened.
  std::size_t binsOpened() const { return bins_.size(); }

  /// Currently open bin count.
  std::size_t openCount() const { return open_.ids.size() - open_.stale; }

  /// Heap bytes the manager holds: per-bin metadata (O(bins opened)), the
  /// open lists (O(peak open bins): each is at most half closed ids) and,
  /// when indexed, the placement index (O(open bins)).
  /// Capacities, not sizes, so the figure is what the allocator handed
  /// out. O(1).
  std::size_t residentBytes() const {
    std::size_t bytes = bins_.capacity() * sizeof(BinInfo) +
                        open_.ids.capacity() * sizeof(BinId) + categoryBytes_;
    if constexpr (R::kIndexable) {
      if (indexed_) bytes += index_.residentBytes();
    }
    return bytes;
  }

  /// Distinct categories among the bins ever opened. Every bin receives
  /// the item that opened it, so this is the number of categories the
  /// placements used.
  std::size_t categoriesOpened() const { return openByCategory_.size(); }

  // --- Mutation interface (driven by the simulators) ---

  /// Opens a new bin with the given category; returns its global id.
  BinId openBin(int category, Time now) {
    BinId id = static_cast<BinId>(bins_.size());
    bins_.push_back(BinInfo{id, category, R::zeroLevel(shape_), 0, now, true});
    open_.ids.push_back(id);
    auto [it, added] = openByCategory_.try_emplace(category);
    std::vector<BinId>& list = it->second.ids;
    const std::size_t capacityBefore = list.capacity();
    list.push_back(id);
    // Map node (value plus three links and a color word) and list growth.
    categoryBytes_ +=
        (added ? sizeof(*it) + 4 * sizeof(void*) : 0) +
        (list.capacity() - capacityBefore) * sizeof(BinId);
    if constexpr (R::kIndexable) {
      if (indexed_) index_.onOpen(id, category);
    }
    CDBP_TELEM_COUNT("sim.bins_opened", 1);
    CDBP_TELEM_GAUGE_SET("sim.open_bins", openCount());
    return id;
  }

  /// Adds an item's demand to a bin. The bin must be open (CDBP_CHECK)
  /// and the demand must fit (CDBP_DCHECK — the simulators validate
  /// placements with wouldFit before committing).
  void addItem(BinId id, const Demand& demand) {
    CDBP_DCHECK(id >= 0 && static_cast<std::size_t>(id) < bins_.size(),
                "addItem: bin id ", id, " out of range");
    BinInfo& bin = bins_[static_cast<std::size_t>(id)];
    CDBP_CHECK(bin.open, "BinManager::addItem: bin ", id, " is closed");
    CDBP_DCHECK(R::fits(bin.level, demand), "addItem: bin ", id,
                " cannot hold the demand within capacity");
    R::add(bin.level, demand);
    ++bin.itemCount;
    if constexpr (R::kIndexable) {
      if (indexed_) index_.onLevelChange(id, bin.level);
    }
  }

  /// Removes an item's demand; closes the bin when it empties. Returns
  /// true when the bin closed. The bin must be open and non-empty
  /// (CDBP_CHECK). Unavailable for append-only resource models.
  bool removeItem(BinId id, const Demand& demand) {
    CDBP_DCHECK(id >= 0 && static_cast<std::size_t>(id) < bins_.size(),
                "removeItem: bin id ", id, " out of range");
    BinInfo& bin = bins_[static_cast<std::size_t>(id)];
    CDBP_CHECK(bin.open && bin.itemCount > 0, "BinManager::removeItem: bin ",
               id, " is not holding items");
    CDBP_DCHECK(R::canRelease(bin.level, demand), "removeItem: bin ", id,
                " cannot release the demand (level would go negative)");
    R::subtract(bin.level, demand);
    --bin.itemCount;
    if (bin.itemCount > 0) {
      if constexpr (R::kIndexable) {
        if (indexed_) index_.onLevelChange(id, bin.level);
      }
      return false;
    }
    bin.level = R::zeroLevel(shape_);  // flush floating-point residue
    bin.open = false;
    if constexpr (R::kIndexable) {
      if (indexed_) index_.onClose(id);
    }
    // The id stays in both open lists until they are compacted: O(1)
    // amortized per close instead of a find-and-erase over each list.
    markStale(open_);
    markStale(openByCategory_.find(bin.category)->second);
    CDBP_TELEM_COUNT("sim.bins_closed", 1);
    CDBP_TELEM_GAUGE_SET("sim.open_bins", openCount());
    return true;
  }

 private:
  // An open list in opening order whose closed ids are removed lazily:
  // `stale` of its entries are closed bins. A close compacts the list once
  // half of it is stale, and every read compacts it first, so readers see
  // open bins only and the list never holds more than twice its open bins.
  struct OpenList {
    std::vector<BinId> ids;
    std::size_t stale = 0;
  };

  void markStale(OpenList& list) {
    ++list.stale;
    if (2 * list.stale >= list.ids.size()) compact(list);
  }

  // Drops the closed ids, keeping opening order. O(list) when stale.
  void compact(OpenList& list) const {
    if (list.stale == 0) return;
    const auto kept = std::remove_if(
        list.ids.begin(), list.ids.end(), [this](BinId id) {
          return !bins_[static_cast<std::size_t>(id)].open;
        });
    CDBP_DCHECK(static_cast<std::size_t>(list.ids.end() - kept) == list.stale,
                "BinManager: an open list's stale count is off");
    list.ids.erase(kept, list.ids.end());
    list.stale = 0;
  }

  Shape shape_;
  std::vector<BinInfo> bins_;
  // Mutable: reads compact them, which changes no observable state.
  mutable OpenList open_;
  mutable std::map<int, OpenList> openByCategory_;
  std::size_t categoryBytes_ = 0;  ///< openByCategory_'s heap, for residentBytes
  bool indexed_ = true;
  BinSearchIndexT<R> index_;
};

/// The scalar instantiation keeps its PR 3 name and constructor shape; it
/// is explicitly instantiated in bin_manager.cpp.
using BinManager = BasicBinManager<ScalarResource>;

extern template class BasicBinManager<ScalarResource>;

}  // namespace cdbp
