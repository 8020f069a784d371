// Global-knowledge up*/down* shortest-path route computation.
//
// This is the routing function a converged link-state protocol (OSPF/IS-IS,
// or our LSP) computes: for every switch and every destination edge switch,
// the ECMP set of next hops on shortest *valid* paths — paths that climb
// zero or more levels and then descend, never turning upward again (§3, §6).
//
// The computation respects a LinkStateOverlay, so the same function yields
// pre-failure routes (intact overlay) and post-convergence routes (overlay
// with failures applied); diffing the two identifies exactly which switches
// a failure forces to update — the paper's "switches that react" metric.
//
// Engine properties (see DESIGN.md "routing engine"):
//  - Destinations are independent, so full computation fans out across a
//    work pool; output is byte-identical to the serial engine at any thread
//    count (static index partition, index-addressed writes only).
//  - Every produced RoutingState carries per-switch digests (fwd_table.h)
//    maintained through incremental updates, letting table diffs
//    short-circuit without full deep compares.
//  - recompute_updown_routes patches a previous state in place given the
//    set of links that changed, recomputing only affected rows.
#pragma once

#include <span>
#include <vector>

#include "src/routing/fwd_table.h"
#include "src/topo/link_state.h"
#include "src/topo/topology.h"

namespace aspen {

/// Computes up*/down* shortest-path forwarding tables for every switch,
/// using only links that are up in `overlay`.  `granularity` keys the
/// tables by edge switch (compact prefixes, the default) or by individual
/// host (making host-link failures routing-visible).  `threads` is the
/// worker count for the per-destination fan-out (0 = auto, see
/// parallel::effective_num_threads); the result is byte-identical at every
/// thread count.
[[nodiscard]] RoutingState compute_updown_routes(const Topology& topo,
                                                 const LinkStateOverlay& overlay,
                                                 DestGranularity granularity,
                                                 int threads);
[[nodiscard]] RoutingState compute_updown_routes(const Topology& topo,
                                                 const LinkStateOverlay& overlay,
                                                 DestGranularity granularity);
[[nodiscard]] RoutingState compute_updown_routes(const Topology& topo,
                                                 const LinkStateOverlay& overlay);

/// Convenience: routes over the intact topology, edge granularity.
[[nodiscard]] RoutingState compute_updown_routes(const Topology& topo);

/// What an incremental recompute actually did, per destination row class.
struct RecomputeStats {
  std::uint64_t total_dests = 0;      ///< rows per table in the state
  std::uint64_t full_rows = 0;        ///< rows recomputed end-to-end
  std::uint64_t escalated_rows = 0;   ///< of full_rows: promoted because a
                                      ///< patched switch's cost changed
  std::uint64_t patched_switches = 0; ///< single-switch row patches applied

  /// One 0/1 flag per destination: 1 where the call rewrote that
  /// destination's row for every switch (the full_rows destinations).
  std::vector<char> rewritten_dests;
  /// Switches whose own rows the up-set patch may have rebuilt, at any
  /// destination.  Every row outside rewritten_dests × all switches and
  /// patched × all destinations is left untouched.  Both are empty when
  /// the call returns without touching a row.
  std::vector<SwitchId> patched;

  /// Rows the incremental path skipped entirely.
  [[nodiscard]] std::uint64_t untouched_rows() const {
    return total_dests - full_rows;
  }
};

/// Updates `state` in place to the routes implied by `overlay`, given that
/// exactly the links in `changed_links` may have flipped since `state` was
/// computed (links listed but unchanged are harmless).  Only affected
/// destination rows are recomputed: for a changed inter-switch link with
/// lower endpoint v, destinations in v's structural subtree get a full row
/// recompute, while every other destination needs at most v's own row
/// patched (its up-phase ECMP set) — unless v's cost changes, which
/// escalates that destination to a full row recompute.  Byte-identical to
/// a fresh compute_updown_routes at every thread count.
RecomputeStats recompute_updown_routes(const Topology& topo,
                                       const LinkStateOverlay& overlay,
                                       RoutingState& state,
                                       std::span<const LinkId> changed_links,
                                       int threads = 0);

/// Number of switches whose forwarding table differs between two states.
/// Exact: engine digests short-circuit the per-switch deep compare (unequal
/// digests prove inequality; equal digests are confirmed byte-for-byte).
[[nodiscard]] std::uint64_t switches_with_changed_tables(
    const RoutingState& before, const RoutingState& after);

/// O(switches) digest-only equality: true iff every per-switch digest
/// matches.  Probabilistic in one direction — unequal digests prove the
/// tables differ, equal digests admit a 2^-64-per-table hash collision —
/// which is what chaos-campaign restoration checks accept in exchange for
/// skipping the full deep compare.  Requires both states to carry digests.
[[nodiscard]] bool tables_match_by_digest(const RoutingState& before,
                                          const RoutingState& after);

}  // namespace aspen
