// Experiments F10c/F10d — regenerates Figures 10(c) and 10(d): network
// size, control overhead and convergence time for mega-data-center fat/
// Aspen pairs, computed analytically — "since the model checker scales to
// at most a few hundred switches, we use additional analysis for mega data
// center sized networks" (§9.2).
#include <cstdio>

#include "bench/paper/experiments.h"
#include "src/analysis/series.h"
#include "src/util/table.h"

bool aspen::bench::fig10_large() {
  const auto series = figure10_large_series();

  std::printf(
      "== Figure 10(c): switch:host ratios — total vs reacting ==\n"
      "(Aspen Total / LSP Total are network size; LSP React / Aspen React\n"
      " are switches reacting per failure, averaged over all links)\n\n");
  TextTable fig10c({"hosts:k,n", "Aspen total/hosts", "LSP total/hosts",
                    "LSP react/hosts", "Aspen react/hosts",
                    "Aspen react %"});
  for (const PairPoint& p : series) {
    fig10c.add_row({
        p.label(),
        format_double(p.aspen_switch_host_ratio, 3),
        format_double(p.fat_switch_host_ratio, 3),
        format_double(p.lsp_react_host_ratio, 3),
        format_double(p.anp_react_host_ratio, 4),
        format_double(100.0 * p.anp_react /
                          static_cast<double>(p.aspen_switches),
                      1) +
            "%",
    });
  }
  std::printf("%s\n", fig10c.to_string().c_str());

  std::printf(
      "== Figure 10(d): average convergence time (ms, log scale in the\n"
      "paper), with hop labels ==\n\n");
  TextTable fig10d({"hosts:k,n", "LSP avg hops", "LSP avg (ms)",
                    "ANP avg hops", "ANP avg (ms)", "speedup"});
  for (const PairPoint& p : series) {
    fig10d.add_row({
        p.label(),
        format_double(p.lsp_avg_hops, 2),
        format_double(p.lsp_avg_ms, 1),
        format_double(p.anp_avg_hops, 2),
        format_double(p.anp_avg_ms, 1),
        format_double(p.lsp_avg_ms / p.anp_avg_ms, 1) + "x",
    });
  }
  std::printf("%s\n", fig10d.to_string().c_str());

  std::printf(
      "expected shape (paper): LSP involves all switches; ANP reacts with\n"
      "10-20%% of switches; ANP converges orders of magnitude faster, with\n"
      "hop labels 3/4.5/6 (LSP) and 1.5/2/2.5 (ANP) per depth group.\n");
  return true;
}
