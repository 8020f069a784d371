// Experiment F9 — regenerates Figure 9: the convergence-versus-scalability
// tradeoff at data-center scale.
//   (a) n=5, k=16 Aspen trees (Max Hops=7, Max Hosts=65,536)
//   (b) n=3, k=64 Aspen trees (Max Hops=3, Max Hosts=65,536)
// Duplicate [host count, convergence time] pairs are collapsed, as in the
// paper ("we collapsed all such duplicates into single entries").
#include <cstdio>

#include "bench/paper/experiments.h"
#include "src/analysis/convergence.h"
#include "src/analysis/scalability.h"
#include "src/aspen/generator.h"
#include "src/util/table.h"

namespace {

void print_series(int n, int k, const char* figure) {
  using namespace aspen;
  const int max_hops = max_update_distance(n);
  const std::uint64_t max_hosts = fat_tree(n, k).num_hosts();
  auto points = collapse_duplicates(scalability_tradeoff(n, k));

  std::printf(
      "== Figure %s: n=%d, k=%d Aspen trees ==\nMax Hops=%d  Max "
      "Hosts=%lu  (%zu distinct [hosts, convergence] points)\n\n",
      figure, n, k, max_hops, static_cast<unsigned long>(max_hosts),
      points.size());

  TextTable table({"Example FTV", "Conv % of max", "Hosts removed % of max",
                   "Hosts", "Avg hops"});
  for (const TradeoffPoint& p : points) {
    table.add_row({
        p.ftv.to_string(),
        format_double(p.convergence_percent(max_hops), 1) + "%",
        format_double(p.removed_percent(max_hosts), 1) + "%",
        std::to_string(p.hosts),
        format_double(p.average_convergence_hops, 2),
    });
  }
  std::printf("%s\n", table.to_string().c_str());
}

}  // namespace

bool aspen::bench::fig9_scale() {
  print_series(5, 16, "9(a)");
  print_series(3, 64, "9(b)");
  return true;
}
