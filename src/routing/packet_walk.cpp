#include "src/routing/packet_walk.h"

#include "src/util/contracts.h"
#include "src/util/status.h"

namespace aspen {

std::span<const Topology::Neighbor> TableRouter::next_hops(
    SwitchId at, HostId dst,
    std::vector<Topology::Neighbor>& /*scratch*/) const {
  const RoutingTables& tables = state_->tables;
  return tables.hops(tables.row(at.value(), state_->dest_index(dst)));
}

StructuralRouter::StructuralRouter(const Topology& topo) : topo_(&topo) {
  const TreeParams& params = topo.params();
  // edges_per_pod[i] = Π_{j=2..i} r_j — how many L_1 switches live under
  // each L_i pod.  Child pod ids are blocked (Eq. 3), so "is this edge under
  // that pod" is a range test.
  edges_per_pod_.assign(static_cast<std::size_t>(params.n) + 1, 1);
  for (Level i = 2; i <= params.n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    edges_per_pod_[ui] = edges_per_pod_[ui - 1] * params.r[ui];
  }
  // With p_n = 1 (Eq. 3), the top-level pod spans every edge switch.
  ASPEN_ASSERT(edges_per_pod_[static_cast<std::size_t>(params.n)] == params.S,
               "top pod spans ",
               edges_per_pod_[static_cast<std::size_t>(params.n)],
               " edges, expected ", params.S);
}

std::span<const Topology::Neighbor> StructuralRouter::next_hops(
    SwitchId at, HostId dst, std::vector<Topology::Neighbor>& scratch) const {
  const Topology& topo = *topo_;
  const std::uint64_t dest_edge_index =
      dst.value() / (static_cast<std::uint64_t>(topo.ports()) / 2);
  const Level level = topo.level_of(at);
  ASPEN_REQUIRE(level >= 1, "packets are routed at switches");

  if (level == 1) {
    // Wrong edge switch: the destination is elsewhere, climb.
    ASPEN_REQUIRE(topo.index_in_level(at) != dest_edge_index,
                  "next_hops called at the destination edge switch");
    return topo.up_neighbors(at);
  }

  const std::uint64_t span_here = edges_per_pod_[static_cast<std::size_t>(level)];
  const std::uint64_t my_pod = topo.pod_of(at).value();
  const bool descendant = dest_edge_index / span_here == my_pod;
  if (!descendant) return topo.up_neighbors(at);

  // Descend toward the child pod that owns the destination edge.
  const std::uint64_t span_below =
      edges_per_pod_[static_cast<std::size_t>(level) - 1];
  const std::uint64_t target_child_pod = dest_edge_index / span_below;
  scratch.clear();
  for (const Topology::Neighbor& nb : topo.down_neighbors(at)) {
    const SwitchId below = topo.switch_of(nb.node);
    if (topo.pod_of(below).value() == target_child_pod) scratch.push_back(nb);
  }
  // Striping regularity (Eq. 2): c_i >= 1 links reach every child pod.
  ASPEN_ASSERT(!scratch.empty(), "no structural link into child pod ",
               target_child_pod, " from switch ", at.value());
  return scratch;
}

WalkResult walk_packet(const Topology& topo, const Router& knowledge,
                       const LinkStateOverlay& actual, HostId src, HostId dst,
                       const WalkOptions& options) {
  std::vector<Topology::Neighbor> scratch;
  return walk_rows(topo, actual, src, dst, options, options.at_time_ms,
                   /*hop_ms=*/0.0, [&](SwitchId at, double /*now*/) {
                     return knowledge.next_hops(at, dst, scratch);
                   });
}

}  // namespace aspen
