// Experiment F8 — regenerates Figure 8: convergence time versus hosts
// removed for every 4-level, 6-port Aspen tree, as percent of maximum
// (Max Hops = 5, Max Hosts = 162).
#include <cstdio>

#include "bench/paper/experiments.h"
#include "src/analysis/convergence.h"
#include "src/analysis/scalability.h"
#include "src/aspen/generator.h"
#include "src/util/table.h"

bool aspen::bench::fig8_tradeoff() {
  const int n = 4;
  const int k = 6;
  const int max_hops = max_update_distance(n);
  const std::uint64_t max_hosts = fat_tree(n, k).num_hosts();

  std::printf(
      "== Figure 8: convergence vs scalability, n=4, k=6 Aspen trees ==\n"
      "Max Hops=%d  Max Hosts=%lu\n\n",
      max_hops, static_cast<unsigned long>(max_hosts));

  auto points = scalability_tradeoff(n, k);
  sort_for_display(points);

  TextTable table({"FTV", "Avg conv (hops)", "Conv % of max", "Hosts",
                   "Hosts removed", "Removed % of max"});
  for (const TradeoffPoint& p : points) {
    table.add_row({
        p.ftv.to_string(),
        format_double(p.average_convergence_hops, 2),
        format_double(p.convergence_percent(max_hops), 1) + "%",
        std::to_string(p.hosts),
        std::to_string(p.hosts_removed),
        format_double(p.removed_percent(max_hosts), 1) + "%",
    });
  }
  std::printf("%s\n", table.to_string().c_str());

  // The figure's paired bars, as ASCII.
  std::printf("convergence time (#) vs hosts removed (*), %% of max\n");
  for (const TradeoffPoint& p : points) {
    std::printf("%-9s |%-40s| conv %5.1f%%\n", p.ftv.to_string().c_str(),
                ascii_bar(p.convergence_percent(max_hops), 100.0).c_str(),
                p.convergence_percent(max_hops));
    std::printf("%-9s |%-40s| lost %5.1f%%\n", "",
                std::string(static_cast<std::size_t>(
                                p.removed_percent(max_hosts) * 0.4),
                            '*')
                    .c_str(),
                p.removed_percent(max_hosts));
  }
  return true;
}
