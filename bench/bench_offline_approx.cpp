// Experiment E2: offline algorithms (Duration Descending First Fit and
// Dual Coloring) against LB3 on random workloads, and against the exact
// OPT_total / brute-force optimum on tiny instances.
//
// Expected shape: measured ratios sit far below the proven worst-case
// factors (5 and 4); Dual Coloring's stripe overhead makes it looser than
// DDFF on benign loads even though its worst-case factor is better.
//
// Flags: --items <int> (default 400), --seeds <int> (default 8),
//        --tiny-seeds <int> (default 25).
#include <iostream>

#include "analysis/empirical.hpp"
#include "core/bin_timeline.hpp"
#include "core/brute_force.hpp"
#include "core/opt_total.hpp"
#include "offline/ddff.hpp"
#include "offline/dual_coloring.hpp"
#include "telemetry/bench_report.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace cdbp;
  Flags flags =
      Flags::strictOrDie(argc, argv, {"items", "seeds", "tiny-seeds", "json"});
  std::size_t items = static_cast<std::size_t>(flags.getInt("items", 400));
  std::size_t numSeeds = static_cast<std::size_t>(flags.getInt("seeds", 8));
  std::size_t tinySeeds = static_cast<std::size_t>(flags.getInt("tiny-seeds", 25));

  std::cout << "=== E2a: offline usage / LB3 on random workloads (" << items
            << " items x " << numSeeds << " seeds) ===\n";
  Table table({"mu", "sizes", "DDFF", "DualColoring", "FirstFit(arrival)"});
  auto dcUsage = [](const Instance& inst) {
    return dualColoring(inst).packing;
  };
  for (double mu : {2.0, 8.0, 32.0}) {
    for (SizeDist sizes : {SizeDist::kUniform, SizeDist::kSmallOnly}) {
      SummaryStats ddffStats, dcStats, ffStats;
      for (std::size_t s = 0; s < numSeeds; ++s) {
        WorkloadSpec spec;
        spec.numItems = items;
        spec.mu = mu;
        spec.sizes = sizes;
        Instance inst = generateWorkload(spec, 42 + s);
        ddffStats.add(
            evaluateOffline(inst, "DDFF", durationDescendingFirstFit).ratio);
        dcStats.add(evaluateOffline(inst, "DC", dcUsage).ratio);
        // Arrival-order First Fit with whole-interval checks, as an
        // offline baseline: just DDFF's packing rule without the sort.
        ffStats.add(evaluateOffline(inst, "FF", [](const Instance& in) {
                      // arrival order == instance order after stable sort
                      std::vector<Item> order = in.sortedByArrival();
                      std::vector<BinId> binOf(in.size(), kUnassigned);
                      std::vector<BinTimeline> bins;
                      for (const Item& r : order) {
                        std::size_t chosen = bins.size();
                        for (std::size_t b = 0; b < bins.size(); ++b) {
                          if (bins[b].fits(r)) {
                            chosen = b;
                            break;
                          }
                        }
                        if (chosen == bins.size()) bins.emplace_back();
                        bins[chosen].add(r);
                        binOf[r.id] = static_cast<BinId>(chosen);
                      }
                      return Packing(in, std::move(binOf));
                    }).ratio);
      }
      table.addRow({Table::num(mu, 0),
                    sizes == SizeDist::kUniform ? "uniform(0,1]" : "small(<=1/2)",
                    Table::num(ddffStats.mean(), 3), Table::num(dcStats.mean(), 3),
                    Table::num(ffStats.mean(), 3)});
    }
  }
  table.print(std::cout);

  std::cout << "\n=== E2b: tiny instances vs exact optima (8 items x "
            << tinySeeds << " seeds) ===\n";
  Table tiny({"metric", "DDFF", "DualColoring", "bound"});
  SummaryStats ddffVsOpt, dcVsOpt, ddffVsRepack, dcVsRepack;
  for (std::size_t s = 0; s < tinySeeds; ++s) {
    WorkloadSpec spec;
    spec.numItems = 8;
    spec.arrivalRate = 3.0;
    spec.mu = 6.0;
    Instance inst = generateWorkload(spec, 7000 + s);
    auto opt = bruteForceOptimal(inst);
    OptTotalResult repack = optTotal(inst);
    double ddff = durationDescendingFirstFit(inst).totalUsage();
    double dc = dualColoring(inst).packing.totalUsage();
    ddffVsOpt.add(ddff / opt->usage);
    dcVsOpt.add(dc / opt->usage);
    ddffVsRepack.add(ddff / repack.value());
    dcVsRepack.add(dc / repack.value());
  }
  tiny.addRow({"mean vs fixed OPT", Table::num(ddffVsOpt.mean(), 3),
               Table::num(dcVsOpt.mean(), 3), "-"});
  tiny.addRow({"max vs fixed OPT", Table::num(ddffVsOpt.max(), 3),
               Table::num(dcVsOpt.max(), 3), "-"});
  tiny.addRow({"mean vs OPT_total", Table::num(ddffVsRepack.mean(), 3),
               Table::num(dcVsRepack.mean(), 3), "-"});
  tiny.addRow({"max vs OPT_total", Table::num(ddffVsRepack.max(), 3),
               Table::num(dcVsRepack.max(), 3), "5 / 4 (Thm 1 / Thm 2)"});
  tiny.print(std::cout);

  telemetry::BenchReport report("offline_approx");
  report.setParam("items", items);
  report.setParam("seeds", numSeeds);
  report.setParam("tiny_seeds", tinySeeds);
  report.addTable("usage_over_lb3", table);
  report.addTable("tiny_vs_exact", tiny);
  report.writeIfRequested(flags, std::cout);
  return 0;
}
