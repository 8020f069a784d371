// The Figure 10 comparison series: corresponding fat/Aspen tree pairs.
//
// Each pair is an n-level, k-port fat tree and the (n+1)-level Aspen tree
// with FTV <k/2−1, 0, …, 0> supporting the same hosts (§9.2).  The small
// pairs are simulated with the DES (`bench_paper fig10_simulation`); the large
// pairs use the analytic models here, exactly as the paper's Figs. 10(c)/(d)
// do ("since the model checker scales to at most a few hundred switches, we
// use additional analysis for mega data center sized networks").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/aspen/tree_params.h"
#include "src/sim/simulator.h"

namespace aspen {

/// One fat/Aspen pair with all the Fig. 10(c)/(d) metrics.
struct PairPoint {
  int k = 0;
  int n_fat = 0;                ///< fat depth; Aspen depth is n_fat + 1
  std::uint64_t hosts = 0;

  TreeParams fat;
  TreeParams aspen;

  std::uint64_t fat_switches = 0;
  std::uint64_t aspen_switches = 0;
  double fat_switch_host_ratio = 0.0;
  double aspen_switch_host_ratio = 0.0;

  /// Switches reacting per failure, averaged over all links (Fig. 10(c)).
  double lsp_react = 0.0;             ///< = all switches in the fat tree
  double anp_react = 0.0;             ///< analytic wave model
  double lsp_react_host_ratio = 0.0;
  double anp_react_host_ratio = 0.0;

  /// Average convergence (Fig. 10(d)): hops and the ms estimate from the
  /// §9.2 constants, averaged over failures at levels 1..n.
  double lsp_avg_hops = 0.0;
  double anp_avg_hops = 0.0;
  SimTime lsp_avg_ms = 0.0;
  SimTime anp_avg_ms = 0.0;

  /// "hosts:k=#,n=#,#" — the x-axis label style of Fig. 10(c)/(d).
  [[nodiscard]] std::string label() const;
};

/// Builds the pair and fills every metric analytically.
[[nodiscard]] PairPoint analyze_pair(int k, int n_fat,
                                     const DelayModel& delays = {});

/// The small simulated configurations of Figs. 10(a)/(b):
/// (k=4,n=3), (k=6,n=3), (k=8,n=3), (k=4,n=4).
[[nodiscard]] std::vector<PairPoint> figure10_small_series(
    const DelayModel& delays = {});

/// The sixteen large configurations of Figs. 10(c)/(d).
[[nodiscard]] std::vector<PairPoint> figure10_large_series(
    const DelayModel& delays = {});

}  // namespace aspen
