#include "src/routing/paths.h"

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "src/util/contracts.h"
#include "src/util/status.h"

namespace aspen {

namespace {

// Switch ids are dense, so path-count memo tables are flat vectors indexed
// by switch id with a sentinel for "not yet computed" — deterministic by
// construction (no hash container in any counting path) and faster than a
// node-allocating map for the dense DAG walks below.
constexpr std::uint64_t kUncounted = std::numeric_limits<std::uint64_t>::max();

std::uint64_t count_down_paths_memo(const Topology& topo,
                                    const LinkStateOverlay& overlay,
                                    SwitchId from, SwitchId to_edge,
                                    std::vector<std::uint64_t>& memo) {
  if (from == to_edge) return 1;
  if (topo.level_of(from) == 1) return 0;
  if (memo[from.value()] != kUncounted) return memo[from.value()];
  std::uint64_t total = 0;
  for (const Topology::Neighbor& nb : topo.down_neighbors(from)) {
    if (!overlay.is_up(nb.link)) continue;
    if (!topo.is_switch_node(nb.node)) continue;
    total += count_down_paths_memo(topo, overlay, topo.switch_of(nb.node),
                                   to_edge, memo);
  }
  memo[from.value()] = total;
  return total;
}

}  // namespace

std::uint64_t count_down_paths(const Topology& topo,
                               const LinkStateOverlay& overlay, SwitchId from,
                               SwitchId to_edge) {
  ASPEN_REQUIRE(topo.level_of(to_edge) == 1,
                "to_edge must be an L1 switch");
  std::vector<std::uint64_t> memo(topo.num_switches(), kUncounted);
  return count_down_paths_memo(topo, overlay, from, to_edge, memo);
}

std::vector<std::vector<NodeId>> enumerate_shortest_paths(
    const Topology& topo, const RoutingState& routes, HostId src,
    HostId dst) {
  const SwitchId dest_edge = topo.edge_switch_of(dst);
  const std::uint64_t dest_index = topo.index_in_level(dest_edge);

  std::vector<std::vector<NodeId>> paths;
  std::vector<NodeId> current{topo.node_of(src)};

  // DFS over the ECMP DAG; the routing state is loop-free by construction
  // (shortest-path costs strictly decrease along next hops), but we cap the
  // depth defensively.
  const int max_depth = 2 * topo.levels() + 2;

  const std::function<void(SwitchId)> dfs = [&](SwitchId at) {
    if (static_cast<int>(current.size()) > max_depth) {
      throw AspenError("shortest-path DAG deeper than any valid path");
    }
    current.push_back(topo.node_of(at));
    if (at == dest_edge) {
      current.push_back(topo.node_of(dst));
      ASPEN_ASSERT(current.size() >= 3,
                   "a host-to-host path has at least src, edge, dst");
      paths.push_back(current);
      current.pop_back();
    } else {
      for (const Topology::Neighbor& nb : routes.tables.hops(
               routes.tables.row(at.value(), dest_index))) {
        dfs(topo.switch_of(nb.node));
      }
    }
    current.pop_back();
  };

  dfs(topo.switch_of(topo.host_uplink(src).node));
  return paths;
}

std::uint64_t count_shortest_paths(const Topology& topo,
                                   const RoutingState& routes, HostId src,
                                   HostId dst) {
  const SwitchId dest_edge = topo.edge_switch_of(dst);
  const std::uint64_t dest_index = topo.index_in_level(dest_edge);

  std::vector<std::uint64_t> memo(topo.num_switches(), kUncounted);
  const std::function<std::uint64_t(SwitchId)> count =
      [&](SwitchId at) -> std::uint64_t {
    if (at == dest_edge) return 1;
    if (memo[at.value()] != kUncounted) return memo[at.value()];
    std::uint64_t total = 0;
    for (const Topology::Neighbor& nb :
         routes.tables.hops(routes.tables.row(at.value(), dest_index))) {
      total += count(topo.switch_of(nb.node));
    }
    memo[at.value()] = total;
    return total;
  };

  return count(topo.switch_of(topo.host_uplink(src).node));
}

}  // namespace aspen
