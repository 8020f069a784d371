// Experiment C1 — the §8.1 "practical Aspen tree" claims:
//   * "an Aspen tree with n=4, k=16 and FTV=<1,0,0> supports only half as
//      many hosts as an n=4, k=16 fat tree, but converges 80% faster"
//   * updates only travel upward (never global);
//   * the §8.1 placement heuristic (<x,0,0,x,0,0> for length 6, budget 2).
#include <cstdio>

#include "bench/paper/experiments.h"
#include "src/analysis/convergence.h"
#include "src/aspen/generator.h"
#include "src/aspen/recommend.h"
#include "src/util/table.h"

bool aspen::bench::practical_tree() {
  std::printf("== §8.1 practical tree: n=4, k=16, FTV=<1,0,0> ==\n\n");
  const TreeParams fat = fat_tree(4, 16);
  const TreeParams vl2 = top_level_redundant_tree(4, 16);

  const double fat_hops = average_update_propagation(fat.ftv());
  const double vl2_hops = average_update_propagation(vl2.ftv());

  TextTable table({"tree", "hosts", "switches", "avg conv (hops)",
                   "est. conv (ms, ANP/LSP)"});
  table.add_row({"fat <0,0,0>", std::to_string(fat.num_hosts()),
                 std::to_string(fat.total_switches()),
                 format_double(fat_hops, 2),
                 format_double(estimate_convergence_ms(fat_hops,
                                                       ProtocolKind::kLsp),
                               1) +
                     " (LSP)"});
  table.add_row({"aspen <1,0,0>", std::to_string(vl2.num_hosts()),
                 std::to_string(vl2.total_switches()),
                 format_double(vl2_hops, 2),
                 format_double(estimate_convergence_ms(vl2_hops,
                                                       ProtocolKind::kAnp),
                               1) +
                     " (ANP)"});
  std::printf("%s\n", table.to_string().c_str());

  std::printf("host ratio            : %.2f (paper: half)\n",
              static_cast<double>(vl2.num_hosts()) /
                  static_cast<double>(fat.num_hosts()));
  std::printf("convergence reduction : %.0f%% (paper: ~80%% faster)\n",
              100.0 * (1.0 - vl2_hops / fat_hops));

  std::printf("\n== §8.1 placement heuristic ==\n");
  for (const auto& [n, budget] :
       std::vector<std::pair<int, int>>{{7, 2}, {7, 3}, {5, 2}, {6, 2}}) {
    const auto ftv = recommend_ftv_placement(n, budget);
    const PlacementQuality q = evaluate_placement(ftv);
    std::printf(
        "n=%d budget=%d -> %-16s covered=%s longest zero run=%d avg "
        "hops=%.2f\n",
        n, budget, ftv.to_string().c_str(), q.covered ? "yes" : "no",
        q.longest_zero_run, q.average_hops);
  }

  std::printf("\n== Ranked single-redundant-level placements, n=4, k=4 ==\n");
  for (const auto& ftv : rank_placements(4, 4, 1)) {
    const PlacementQuality q = evaluate_placement(ftv);
    std::printf("%-10s covered=%-3s avg hops=%.2f\n", ftv.to_string().c_str(),
                q.covered ? "yes" : "no", q.average_hops);
  }
  return true;
}
