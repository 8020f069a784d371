// Hierarchical host labels and compact prefix forwarding (§5.3).
//
// "[Hierarchical aggregation] contributes to the efficiency of
//  communication and labeling schemes that rely on shared label prefixes
//  for compact forwarding state [PortLand, ALIAS].  In these schemes, it is
//  desirable to group as many L_{i-1} switches together as possible under
//  each L_i switch."
//
// Because pods form a tree (Eq. 3), every host has a canonical positional
// label: reading from the top, the child-pod ordinal chosen at each level,
// then the member ordinal of its edge switch within its L_1 pod's parent…
// in our construction the digits are simply
//
//   label = <d_{n-1}, …, d_1, d_0>
//
// where d_i (i >= 1) is the ordinal of the level-i pod within its level-
// (i+1) parent pod (so d_i ∈ [0, r_{i+1})) and d_0 is the host's ordinal on
// its edge switch (d_0 ∈ [0, k/2)).  A switch then forwards downward with
// one table entry per child pod — r_i + 1 entries including the default-up
// route — instead of one entry per destination.  This module materializes
// the labels, the compact tables, and a Router that forwards by them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/routing/packet_walk.h"
#include "src/topo/topology.h"

namespace aspen {

/// A host's positional label, most-significant (top-level) digit first.
struct HostLabel {
  std::vector<std::uint32_t> digits;  ///< n digits: d_{n-1} … d_1, d_0

  [[nodiscard]] std::string to_string() const;
  friend bool operator==(const HostLabel&, const HostLabel&) = default;
};

/// Canonical label of a host under the pod-tree numbering.
[[nodiscard]] HostLabel label_of(const Topology& topo, HostId host);

/// Inverse of label_of.  Throws on out-of-range digits.
[[nodiscard]] HostId host_of_label(const Topology& topo,
                                   const HostLabel& label);

/// Compact forwarding state of one switch: one entry per child pod plus a
/// default-up route, as a prefix-match structure over labels.
struct CompactTable {
  Level level = 0;
  /// entry b covers labels whose next digit equals b; holds the ECMP set
  /// of links into that child pod.
  std::vector<std::vector<Topology::Neighbor>> child_pod_ports;
  /// The default route: every upward port.
  std::vector<Topology::Neighbor> up_ports;

  /// Total entries a TCAM would hold (children + 1 default if any ups).
  [[nodiscard]] std::uint64_t entries() const {
    return child_pod_ports.size() + (up_ports.empty() ? 0 : 1);
  }
};

/// Builds every switch's compact table from the topology structure.
[[nodiscard]] std::vector<CompactTable> build_compact_tables(
    const Topology& topo);

/// Routes by label prefixes over compact tables — structurally equivalent
/// to StructuralRouter, but consulting r_i + 1 entries instead of shape
/// arithmetic.  Knowledge is the intact wiring (labels are static).
class LabelRouter final : public Router {
 public:
  explicit LabelRouter(const Topology& topo);

  /// Returns the matched compact entry's ports in place.
  [[nodiscard]] std::span<const Topology::Neighbor> next_hops(
      SwitchId at, HostId dst,
      std::vector<Topology::Neighbor>& scratch) const override;

  [[nodiscard]] const CompactTable& table(SwitchId s) const {
    return tables_.at(s.value());
  }

  /// Compact entries across all switches (the §5.3 "forwarding state").
  [[nodiscard]] std::uint64_t total_entries() const;

 private:
  const Topology* topo_;
  std::vector<CompactTable> tables_;
  std::vector<std::uint64_t> edges_per_pod_;  // [1..n]
};

/// Forwarding-state accounting for a whole tree: compact (prefix) entries
/// versus flat per-edge and per-host entries.
struct ForwardingStateStats {
  std::uint64_t compact_entries = 0;    ///< Σ per-switch (r_i + 1)
  std::uint64_t flat_edge_entries = 0;  ///< switches × S
  std::uint64_t flat_host_entries = 0;  ///< switches × hosts
  double mean_compact_per_switch = 0.0;
};

[[nodiscard]] ForwardingStateStats forwarding_state_stats(
    const Topology& topo);

}  // namespace aspen
