#include "sim/run_many.hpp"

#include <stdexcept>

#include "core/lower_bounds.hpp"
#include "util/thread_pool.hpp"
#include "workload/trace_internals.hpp"

namespace cdbp {

std::vector<RunResult> runMany(const RunManySpec& spec) {
  const std::size_t numInstances = spec.instances.size();
  const std::size_t numPolicies = spec.policies.size();
  const std::size_t numSeeds = spec.seeds.size();
  const std::size_t numCells = numInstances * numPolicies * numSeeds;

  for (const RunPolicy& policy : spec.policies) {
    if (policy.spec.empty() && !policy.factory) {
      throw std::invalid_argument("runMany: policy entry with neither spec nor factory");
    }
  }

  struct BuiltInstance {
    std::shared_ptr<const Instance> instance;
    double lb3 = 0;
  };
  // Pool tasks write these at disjoint indices (one owner per slot), so
  // neither vector needs a mutex — the lock-free counterpart of the
  // annotated discipline inside ThreadPool, checked by tsan instead of
  // clang's thread-safety analysis.
  std::vector<BuiltInstance> built(numInstances * numSeeds);
  std::vector<RunResult> results(numCells);
  if (numCells == 0) return results;

  ThreadPool pool(spec.threads);

  // Phase 1: each (instance, seed) pair is generated once — and its lower
  // bound computed once — then shared read-only across the policy axis.
  parallelFor(pool, built.size(), [&](std::size_t task) {
    std::size_t i = task / numSeeds;
    std::size_t s = task % numSeeds;
    auto instance = std::make_shared<const Instance>(
        spec.instances[i](spec.seeds[s]));
    BuiltInstance& slot = built[task];
    if (spec.computeLowerBound) {
      slot.lb3 = lowerBounds(*instance).ceilIntegral;
    }
    slot.instance = std::move(instance);
  });

  // Phase 2: one task per grid cell. Policies are constructed inside the
  // cell (fresh state, cell-local context), so cells are independent and
  // the grid is deterministic under any thread count.
  parallelFor(pool, numCells, [&](std::size_t cell) {
    std::size_t i = cell / (numPolicies * numSeeds);
    std::size_t p = (cell / numSeeds) % numPolicies;
    std::size_t s = cell % numSeeds;
    const BuiltInstance& input = built[i * numSeeds + s];
    const RunPolicy& entry = spec.policies[p];

    PolicyContext context =
        spec.context.has_value()
            ? *spec.context
            : PolicyContext::forInstance(*input.instance, spec.seeds[s]);
    PolicyPtr policy = entry.factory ? entry.factory(context)
                                     : makePolicy(entry.spec, context);

    RunResult& result = results[cell];
    result.instanceIndex = i;
    result.policyIndex = p;
    result.seedIndex = s;
    result.seed = spec.seeds[s];
    result.instance = input.instance;
    result.lb3 = input.lb3;

    SimOptions options;
    options.engine = spec.engine;
    options.shardedThreads = spec.shardedThreads;
    if (spec.captureTrace) {
      result.trace = std::make_shared<DecisionTrace>();
      options.trace = result.trace.get();
    }
    result.sim = simulateOnline(*input.instance, *policy, options);
    result.policyName = policy->name();
    result.ratio = result.lb3 > 0 ? result.sim.totalUsage / result.lb3 : 1.0;
  });

  return results;
}

std::function<Instance(std::uint64_t)> traceFileInstanceAxis(
    std::string path) {
  // The axis already runs inside runMany's pool: one parse thread per
  // load, so the pools do not multiply threads.
  return [path = std::move(path)](std::uint64_t /*seed*/) {
    return trace_internal::loadInstance(path, {.workers = 1});
  };
}

void runCells(unsigned threads, std::size_t count,
              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  ThreadPool pool(threads);
  parallelFor(pool, count, fn);
}

}  // namespace cdbp
