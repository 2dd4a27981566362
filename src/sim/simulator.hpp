// Event-driven online packing simulator.
//
// Replays an instance in arrival order against an OnlinePolicy, maintaining
// the open-bin state (bins close permanently when they empty) and
// validating every decision. Produces the final Packing plus run
// statistics.
#pragma once

#include <functional>
#include <vector>

#include "core/instance.hpp"
#include "core/packing.hpp"
#include "online/policy.hpp"
#include "sim/trace.hpp"

namespace cdbp {

// PlacementEngine moved to sim/bin_manager.hpp in PR 4 (the multidim and
// flexible simulators select engines too); it arrives here transitively
// via online/policy.hpp -> sim/placement_view.hpp -> sim/bin_manager.hpp.

struct SimOptions {
  /// Placement engine selection. Both engines produce bit-identical
  /// packings and SimResults (see DESIGN.md §9.1); kLinearScan exists for
  /// differential testing and honest before/after benchmarking.
  PlacementEngine engine = PlacementEngine::kIndexed;

  /// Optional transformation applied to each item before it is shown to the
  /// policy — used to model inaccurate duration estimates (§6 future work:
  /// the policy sees the perturbed departure, the system evolves with the
  /// true one). Sizes and arrivals must not change; the simulator enforces
  /// this.
  std::function<Item(const Item&)> announce;

  /// When set, every placement decision is appended here (see trace.hpp).
  /// Timelines (chrome://tracing) come from StreamOptions::chromeTrace.
  DecisionTrace* trace = nullptr;

  /// Worker threads for engine == kSharded (0 picks the hardware
  /// concurrency); ignored by the other engines. The sharded engine
  /// rejects `trace`: per-decision artifacts are a single-timeline
  /// notion, use kIndexed for those runs.
  std::size_t shardedThreads = 0;
};

struct SimResult {
  Packing packing;
  Time totalUsage = 0;
  std::size_t binsOpened = 0;
  std::size_t maxOpenBins = 0;
  /// Number of categories the policy ended up using.
  std::size_t categoriesUsed = 0;
};

/// Runs `policy` (reset() first) over `instance`. Throws std::logic_error
/// if the policy returns a closed or infeasible bin.
SimResult simulateOnline(const Instance& instance, OnlinePolicy& policy,
                         const SimOptions& options = {});

}  // namespace cdbp
