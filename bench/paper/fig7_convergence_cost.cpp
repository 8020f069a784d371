// Experiment F7 — regenerates Figure 7: fat-tree : Aspen-tree convergence
// cost ratio for base depths n = 3..7 and x = 1..4 added fault-tolerant
// levels, at fixed host count (§8.2).
//
// Paper shape: for x <= n−2 the ratio is always above 1 (the Aspen tree's
// faster reactions outweigh its extra links / extra points of failure).
#include <cstdio>

#include "bench/paper/experiments.h"
#include "src/analysis/cost.h"
#include "src/util/table.h"

bool aspen::bench::fig7_convergence_cost() {
  std::printf(
      "== Figure 7: fat:Aspen convergence cost ratio (fixed hosts) ==\n"
      "ratio > 1 means the Aspen tree wins despite added links\n\n");

  TextTable table({"fat depth n", "x=1", "x=2", "x=3", "x=4"});
  for (int n = 3; n <= 7; ++n) {
    std::vector<std::string> row{std::to_string(n)};
    for (int x = 1; x <= 4; ++x) {
      row.push_back(format_double(fat_vs_aspen_cost_ratio(n, x), 3));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.to_string().c_str());

  // Ablation: the same grid with the redundancy buried at the bottom of
  // the tree — the §8.1 guidance in cost terms.
  std::printf(
      "== Ablation: redundancy placement (x=1) — top vs spread vs bottom "
      "==\n");
  TextTable ablation({"fat depth n", "top", "spread", "bottom"});
  for (int n = 3; n <= 7; ++n) {
    ablation.add_row({
        std::to_string(n),
        format_double(
            fat_vs_aspen_cost_ratio(n, 1, RedundancyPlacement::kTop), 3),
        format_double(
            fat_vs_aspen_cost_ratio(n, 1, RedundancyPlacement::kSpread), 3),
        format_double(
            fat_vs_aspen_cost_ratio(n, 1, RedundancyPlacement::kBottom), 3),
    });
  }
  std::printf("%s\n", ablation.to_string().c_str());

  // Per-tree detail for one representative configuration.
  std::printf("== Detail: n=4, k=8, x=1 ==\n");
  const ConvergenceCost fat = fat_tree_cost(4, 8);
  const ConvergenceCost aspen = aspen_fixed_host_cost(4, 8, 1);
  std::printf("fat   : avg %.2f hops x %lu links = cost %.0f\n",
              fat.average_hops, static_cast<unsigned long>(fat.links),
              fat.cost);
  std::printf("aspen : avg %.2f hops x %lu links = cost %.0f\n",
              aspen.average_hops, static_cast<unsigned long>(aspen.links),
              aspen.cost);
  std::printf("ratio : %.3f\n", fat.cost / aspen.cost);
  return true;
}
