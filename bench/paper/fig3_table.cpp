// Experiment T1 — regenerates the Figure 3(a) table: every possible
// 4-level, 6-port Aspen tree with its fault tolerance, size and
// hierarchical-aggregation properties.
//
// Paper reference values (CoNEXT'13, Fig. 3(a)):
//   FTV      DCC  S   switches hosts  aggregation(L4,L3,L2,overall)
//   <0,0,0>   1   54  189      162    3 3 3 27
//   <0,0,2>   3   18   63       54    3 3 1  9
//   …
//   <2,2,2>  27    2    7        6    1 1 1  1
#include <cstdio>

#include "bench/paper/experiments.h"
#include "src/aspen/enumerate.h"
#include "src/util/table.h"

namespace {

void print_figure3a() {
  using namespace aspen;
  TextTable table({"FTV", "DCC", "S", "Switches", "Hosts", "Agg L4",
                   "Agg L3", "Agg L2", "Agg overall"});
  for (const TreeParams& t : enumerate_trees(4, 6)) {
    table.add_row({
        t.ftv().to_string(),
        std::to_string(t.dcc()),
        std::to_string(t.S),
        std::to_string(t.total_switches()),
        std::to_string(t.num_hosts()),
        format_double(t.aggregation_at_level(4), 0),
        format_double(t.aggregation_at_level(3), 0),
        format_double(t.aggregation_at_level(2), 0),
        format_double(t.overall_aggregation(), 0),
    });
  }
  std::printf(
      "== Figure 3(a): all possible 4-level, 6-port Aspen trees ==\n%s\n",
      table.to_string().c_str());
}

void print_larger_catalog() {
  using namespace aspen;
  // Bonus: the same catalog for a deployment-sized shape, demonstrating
  // that enumeration scales beyond the paper's illustrative example.
  TextTable table({"FTV", "DCC", "Hosts", "Switches", "Avg agg"});
  std::size_t rows = 0;
  for (const TreeParams& t : enumerate_trees(3, 16)) {
    table.add_row({t.ftv().to_string(), std::to_string(t.dcc()),
                   std::to_string(t.num_hosts()),
                   std::to_string(t.total_switches()),
                   format_double(t.overall_aggregation(), 0)});
    ++rows;
  }
  std::printf("== Catalog: all %zu valid 3-level, 16-port Aspen trees ==\n%s\n",
              rows, table.to_string().c_str());
}

}  // namespace

bool aspen::bench::fig3_table() {
  print_figure3a();
  print_larger_catalog();
  return true;
}
