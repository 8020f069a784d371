#include "src/traffic/load.h"

#include <algorithm>
#include <limits>

#include "src/obs/obs.h"
#include "src/util/contracts.h"
#include "src/util/status.h"

namespace aspen {

namespace {

const obs::Counter kFlowsUnroutable{"traffic.flows_unroutable"};
const obs::Counter kFlowsRouted{"traffic.flows_routed"};

}  // namespace

LoadResult assign_load(const Topology& topo, const Router& knowledge,
                       const LinkStateOverlay& actual,
                       const std::vector<Flow>& flows,
                       const LoadOptions& options) {
  LoadResult result;

  // 1. Pin each flow to a path via the packet walker.  Links are full
  // duplex: each physical link contributes two unit-capacity channels, one
  // per direction, keyed as 2·link + (0 = upward, 1 = downward).
  std::vector<std::vector<std::uint32_t>> flow_links;
  flow_links.reserve(flows.size());
  double total_path_links = 0.0;
  for (const Flow& flow : flows) {
    WalkOptions walk_options;
    walk_options.flow_seed = options.flow_seed;
    walk_options.ttl = options.ttl;
    const WalkResult walk =
        walk_packet(topo, knowledge, actual, flow.src, flow.dst,
                    walk_options);
    if (!walk.delivered()) {
      ++result.flows_unroutable;
      obs::count(kFlowsUnroutable);
      continue;
    }
    // Recover the directed channel sequence from the node path.
    std::vector<std::uint32_t> links;
    links.reserve(walk.path.size());
    for (std::size_t i = 0; i + 1 < walk.path.size(); ++i) {
      const NodeId a = walk.path[i];
      const NodeId b = walk.path[i + 1];
      LinkId link = LinkId::invalid();
      bool upward = false;
      if (topo.is_switch_node(a) && topo.is_switch_node(b)) {
        const SwitchId sa = topo.switch_of(a);
        const SwitchId sb = topo.switch_of(b);
        upward = topo.level_of(sa) < topo.level_of(sb);
        link = upward ? topo.find_link(sb, sa) : topo.find_link(sa, sb);
      } else {
        // Host hop: climbing when the host comes first.
        upward = !topo.is_switch_node(a);
        const HostId h = topo.host_of(upward ? a : b);
        link = topo.host_uplink(h).link;
      }
      ASPEN_CHECK(link.valid(), "walked across a non-existent link");
      links.push_back(link.value() * 2 + (upward ? 0u : 1u));
    }
    flow_links.push_back(std::move(links));
    total_path_links += static_cast<double>(flow_links.back().size());
    ++result.flows_routed;
    obs::count(kFlowsRouted);
  }

  // Explicit loss accounting: the max-min fold below only sees routed
  // flows, so the unroutable share must be reported, not implied.  The
  // identity is always asserted; paranoid audits keep the check in
  // builds that compile ASPEN_ASSERT out.
  if (contracts::effective_audit_level(contracts::AuditLevel::kOff) >=
      contracts::AuditLevel::kParanoid) {
    ASPEN_CHECK(result.flows_routed + result.flows_unroutable == flows.size(),
                "every flow is either routed or unroutable: ",
                result.flows_routed, " + ", result.flows_unroutable,
                " != ", flows.size());
  }
  if (!flows.empty()) {
    result.lost_rate = static_cast<double>(result.flows_unroutable) /
                       static_cast<double>(flows.size());
  }

  // 2. Progressive-filling max-min fair allocation, unit capacities.
  const std::size_t nf = flow_links.size();
  result.rates.assign(nf, 0.0);
  if (nf == 0) return result;

  const std::uint64_t channels = topo.num_links() * 2;
  std::vector<double> link_capacity(channels, 1.0);
  std::vector<std::uint64_t> link_flows(channels, 0);
  for (const auto& links : flow_links) {
    for (const std::uint32_t l : links) ++link_flows[l];
  }
  std::vector<char> physical_used(topo.num_links(), 0);
  for (std::uint64_t l = 0; l < channels; ++l) {
    if (link_flows[l] > 0) physical_used[l / 2] = 1;
    result.max_link_flows = std::max(result.max_link_flows, link_flows[l]);
  }
  for (std::uint64_t l = 0; l < topo.num_links(); ++l) {
    if (physical_used[l]) ++result.links_used;
  }

  std::vector<char> frozen(nf, 0);
  std::size_t remaining = nf;
  while (remaining > 0) {
    // Bottleneck link: minimal capacity / active-flow ratio.
    double bottleneck_share = std::numeric_limits<double>::infinity();
    for (std::uint64_t l = 0; l < channels; ++l) {
      if (link_flows[l] == 0) continue;
      bottleneck_share = std::min(
          bottleneck_share,
          link_capacity[l] / static_cast<double>(link_flows[l]));
    }
    ASPEN_CHECK(bottleneck_share <
                    std::numeric_limits<double>::infinity(),
                "active flows with no links");

    // Raise every active flow by the share; freeze flows on saturated
    // links.
    for (std::size_t f = 0; f < nf; ++f) {
      if (frozen[f]) continue;
      result.rates[f] += bottleneck_share;
      for (const std::uint32_t l : flow_links[f]) {
        link_capacity[l] -= bottleneck_share;
      }
    }
    constexpr double kEps = 1e-12;
    for (std::size_t f = 0; f < nf; ++f) {
      if (frozen[f]) continue;
      for (const std::uint32_t l : flow_links[f]) {
        if (link_capacity[l] <= kEps) {
          frozen[f] = 1;
          break;
        }
      }
      if (frozen[f]) {
        --remaining;
        for (const std::uint32_t l : flow_links[f]) {
          --link_flows[l];
        }
      }
    }
  }

  ASPEN_ASSERT(result.flows_routed + result.flows_unroutable == flows.size(),
               "every flow is either routed or unroutable");
  result.min_rate = *std::ranges::min_element(result.rates);
  for (const double r : result.rates) result.aggregate_throughput += r;
  result.mean_rate =
      result.aggregate_throughput / static_cast<double>(nf);
  result.mean_path_links = total_path_links / static_cast<double>(nf);
  return result;
}

}  // namespace aspen
