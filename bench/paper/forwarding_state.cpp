// Experiment X5 (extension) — forwarding state vs hierarchical aggregation
// (§5.3).
//
// "This property contributes to the efficiency of communication and
//  labeling schemes that rely on shared label prefixes for compact
//  forwarding state."
//
// For every 4-level, 6-port Aspen tree: the total prefix-table entries a
// PortLand/ALIAS-style labeling scheme needs, against flat per-edge and
// per-host tables — and the same accounting at deployment scale.
#include <cstdio>

#include "bench/paper/experiments.h"
#include "src/aspen/enumerate.h"
#include "src/aspen/generator.h"
#include "src/labels/labels.h"
#include "src/util/table.h"

bool aspen::bench::forwarding_state() {
  std::printf(
      "== Compact (prefix) vs flat forwarding state, all n=4, k=6 Aspen "
      "trees ==\n\n");
  TextTable table({"FTV", "hosts", "overall agg", "compact entries",
                   "per switch", "flat edge-keyed", "flat host-keyed"});
  for (const TreeParams& params : enumerate_trees(4, 6)) {
    const Topology topo = Topology::build(params);
    const ForwardingStateStats stats = forwarding_state_stats(topo);
    table.add_row({params.ftv().to_string(),
                   std::to_string(params.num_hosts()),
                   format_double(params.overall_aggregation(), 0),
                   std::to_string(stats.compact_entries),
                   format_double(stats.mean_compact_per_switch, 1),
                   std::to_string(stats.flat_edge_entries),
                   std::to_string(stats.flat_host_entries)});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf(
      "== Deployment scale: 3-level trees, compact state per switch ==\n\n");
  TextTable big({"tree", "hosts", "compact/switch", "flat host-keyed/switch",
                 "ratio"});
  for (const int k : {16, 32, 64}) {
    const TreeParams params = fat_tree(3, k);
    const Topology topo = Topology::build(params);
    const ForwardingStateStats stats = forwarding_state_stats(topo);
    const double flat_per_switch =
        static_cast<double>(stats.flat_host_entries) /
        static_cast<double>(topo.num_switches());
    big.add_row({params.to_string(), std::to_string(params.num_hosts()),
                 format_double(stats.mean_compact_per_switch, 1),
                 format_double(flat_per_switch, 0),
                 format_double(flat_per_switch /
                                   stats.mean_compact_per_switch,
                               0) +
                     "x"});
  }
  std::printf("%s\n", big.to_string().c_str());
  std::printf(
      "hierarchical labels keep per-switch state at O(k) entries while flat\n"
      "tables grow with the fabric — the §5.3 reason hierarchical\n"
      "aggregation is worth trading fault tolerance against.\n");
  return true;
}
