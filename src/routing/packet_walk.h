// Hop-by-hop packet walking.
//
// A packet is forwarded by consulting a Router (the switches' *knowledge*,
// which may be stale) while traversing links whose liveness comes from the
// network's *actual* state.  This separation reproduces the paper's §2
// scenario exactly: a packet is doomed the moment an upstream switch picks a
// next hop whose every downstream path crosses a failed link the switch has
// not yet heard about.
//
// Switches are aware of their own incident links (failure *detection* is
// local even when *notification* has not propagated), so by default a switch
// skips next hops whose first link is down and only drops when no offered
// next hop is actually usable.
//
// walk_packet is a thin adapter over the one hop-loop kernel, ecmp::walk
// (src/routing/ecmp.h): the Router is its row source, ecmp::pick_hashed its
// pick, and the visitor records the node path.  walk_rows is the same
// adapter over any row source; the in-flight walker uses it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/routing/ecmp.h"
#include "src/routing/fwd_table.h"
#include "src/topo/link_state.h"
#include "src/topo/topology.h"

namespace aspen {

/// Source of next-hop decisions at each switch.
class Router {
 public:
  virtual ~Router() = default;
  /// ECMP next-hop row at switch `at` for a packet destined to host `dst`;
  /// an empty row means "no route".  A router that stores its rows returns
  /// them in place; one that computes a row fills `scratch` (owned by the
  /// walk and reused hop to hop) and returns a view of it.  Never called
  /// at the destination's edge switch (delivery there is the walker's job).
  [[nodiscard]] virtual std::span<const Topology::Neighbor> next_hops(
      SwitchId at, HostId dst,
      std::vector<Topology::Neighbor>& scratch) const = 0;
};

/// Routes from explicit forwarding tables (e.g. what LSP converged to, or
/// what ANP patched after a failure).  Reads through the state on every
/// call, so the state may change between walks (ANP detours grow slices).
class TableRouter final : public Router {
 public:
  explicit TableRouter(const RoutingState& state) : state_(&state) {}
  [[nodiscard]] std::span<const Topology::Neighbor> next_hops(
      SwitchId at, HostId dst,
      std::vector<Topology::Neighbor>& scratch) const override;

 private:
  const RoutingState* state_;
};

/// Structural router: next hops computed from the tree's shape assuming an
/// intact network — the canonical "stale tables" of a fabric that has not
/// re-converged.  O(k) per hop with no per-destination state, so it scales
/// to the 64-port trees of the §1 disconnection claim.
class StructuralRouter final : public Router {
 public:
  explicit StructuralRouter(const Topology& topo);
  /// Climbing rows are the switch's uplinks, in place; a descent set is
  /// filtered into `scratch`.
  [[nodiscard]] std::span<const Topology::Neighbor> next_hops(
      SwitchId at, HostId dst,
      std::vector<Topology::Neighbor>& scratch) const override;

  /// Number of L_1 switches underneath one pod at `level`.
  [[nodiscard]] std::uint64_t edges_per_pod(Level level) const {
    return edges_per_pod_.at(static_cast<std::size_t>(level));
  }

 private:
  const Topology* topo_;
  std::vector<std::uint64_t> edges_per_pod_;  // [1..n]
};

/// The kernel's stop record plus the node path it visited.
struct WalkResult : ecmp::WalkStop {
  std::vector<NodeId> path;  ///< nodes visited, starting at the source host

  [[nodiscard]] bool delivered() const {
    return status == WalkStatus::kDelivered;
  }
};

struct WalkOptions {
  /// Per-flow seed mixed into the ECMP hash; vary to explore path diversity.
  std::uint64_t flow_seed = 0;
  /// Max links traversed before declaring a loop.
  int ttl = 64;
  /// Model local failure detection: skip offered next hops whose link is
  /// actually down, dropping only when all offered hops are dead (§6: "a
  /// switch … can simply select an alternate upward-facing output port").
  /// A flapping link in its down phase counts as dead here — the port is
  /// observably down; a gray link does not — gray loss is invisible.
  bool local_link_awareness = true;
  /// Honor gray/flapping link health on the walked path.  Chaos-campaign
  /// physics checks disable this to compare pure tables-vs-liveness.
  bool apply_health = true;
  /// Seed for the deterministic per-flow gray-drop decision.  The drop is a
  /// pure hash of (health_seed, link, src, dst), so two walkers taking the
  /// same flow across the same gray link agree on its fate.
  std::uint64_t health_seed = 0;
  /// Wall-clock instant of the walk, for flapping-link phase.
  double at_time_ms = 0.0;
};

/// Walks one packet from src to dst. `knowledge` decides, `actual` kills.
[[nodiscard]] WalkResult walk_packet(const Topology& topo,
                                     const Router& knowledge,
                                     const LinkStateOverlay& actual,
                                     HostId src, HostId dst,
                                     const WalkOptions& options = {});

/// walk_packet's decisions over an arbitrary row source: `rows(at, now)`
/// returns switch `at`'s row toward `dst` at walk instant `now`.  The walk
/// starts at `start_ms` and its clock advances `hop_ms` per link crossed;
/// options.at_time_ms is not consulted.
template <typename Rows>
[[nodiscard]] WalkResult walk_rows(const Topology& topo,
                                   const LinkStateOverlay& actual, HostId src,
                                   HostId dst, const WalkOptions& options,
                                   double start_ms, double hop_ms,
                                   Rows&& rows) {
  WalkResult result;
  const ecmp::WalkSpec spec{.src = src,
                            .dst = dst,
                            .ttl = options.ttl,
                            .apply_health = options.apply_health,
                            .health_seed = options.health_seed,
                            .start_ms = start_ms,
                            .hop_ms = hop_ms};
  static_cast<ecmp::WalkStop&>(result) = ecmp::walk(
      topo, actual, spec, rows,
      [&](std::span<const Topology::Neighbor> row, SwitchId at,
          const auto& live) {
        return ecmp::pick_hashed(
            row, ecmp::flow_key(options.flow_seed, src, dst, at),
            options.local_link_awareness, live);
      },
      [&](NodeId node) { result.path.push_back(node); });
  ASPEN_ASSERT(result.path.size() == static_cast<std::size_t>(result.hops) + 1,
               "walk path length disagrees with hop count");
  return result;
}

}  // namespace aspen
