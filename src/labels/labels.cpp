#include "src/labels/labels.h"

#include <sstream>

#include "src/util/contracts.h"
#include "src/util/status.h"

namespace aspen {

namespace {

// edges_per_pod[i] = Π_{j=2..i} r_j: L_1 switches under each L_i pod.
std::vector<std::uint64_t> edges_per_pod(const TreeParams& params) {
  std::vector<std::uint64_t> result(static_cast<std::size_t>(params.n) + 1,
                                    1);
  for (Level i = 2; i <= params.n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    result[ui] = result[ui - 1] * params.r[ui];
  }
  return result;
}

}  // namespace

std::string HostLabel::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    os << (i == 0 ? "" : ".") << digits[i];
  }
  return os.str();
}

HostLabel label_of(const Topology& topo, HostId host) {
  const TreeParams& params = topo.params();
  const auto half_k = static_cast<std::uint64_t>(params.k) / 2;
  const std::uint64_t edge = host.value() / half_k;
  const auto spans = edges_per_pod(params);

  HostLabel label;
  label.digits.reserve(static_cast<std::size_t>(params.n));
  // d_i for i = n−1 … 1: the level-i pod's ordinal within its parent pod.
  for (Level i = params.n - 1; i >= 1; --i) {
    const std::uint64_t pod = edge / spans[static_cast<std::size_t>(i)];
    const std::uint64_t ordinal =
        pod % params.r[static_cast<std::size_t>(i) + 1];
    label.digits.push_back(static_cast<std::uint32_t>(ordinal));
  }
  // d_0: the host's ordinal on its edge switch.
  label.digits.push_back(
      static_cast<std::uint32_t>(host.value() % half_k));
  ASPEN_ASSERT(label.digits.size() == static_cast<std::size_t>(params.n),
               "a §5.3 label has exactly n digits");
  return label;
}

HostId host_of_label(const Topology& topo, const HostLabel& label) {
  const TreeParams& params = topo.params();
  ASPEN_REQUIRE(label.digits.size() == static_cast<std::size_t>(params.n),
                "label must have n = ", params.n, " digits, got ",
                label.digits.size());
  const auto half_k = static_cast<std::uint64_t>(params.k) / 2;

  std::uint64_t pod = 0;  // pod ordinal walking down from the (single) top
  std::size_t digit = 0;
  for (Level i = params.n - 1; i >= 1; --i, ++digit) {
    const std::uint64_t r = params.r[static_cast<std::size_t>(i) + 1];
    const std::uint32_t d = label.digits[digit];
    ASPEN_REQUIRE(d < r, "digit ", digit, " out of range [0,", r, ")");
    pod = pod * r + d;
  }
  const std::uint32_t d0 = label.digits.back();
  ASPEN_REQUIRE(d0 < half_k, "host digit out of range");
  return HostId{static_cast<std::uint32_t>(pod * half_k + d0)};
}

std::vector<CompactTable> build_compact_tables(const Topology& topo) {
  const TreeParams& params = topo.params();
  std::vector<CompactTable> tables(topo.num_switches());
  for (std::uint32_t v = 0; v < topo.num_switches(); ++v) {
    const SwitchId s{v};
    CompactTable& table = tables[v];
    table.level = topo.level_of(s);
    table.up_ports.assign(topo.up_neighbors(s).begin(),
                          topo.up_neighbors(s).end());
    if (table.level == 1) {
      // Edge switches: one entry per attached host (d_0 match).
      table.child_pod_ports.resize(
          static_cast<std::size_t>(params.k) / 2);
      for (const Topology::Neighbor& nb : topo.down_neighbors(s)) {
        const HostId h = topo.host_of(nb.node);
        table.child_pod_ports[h.value() %
                              (static_cast<std::uint64_t>(params.k) / 2)]
            .push_back(nb);
      }
    } else {
      // One entry per child pod; ECMP over the c_i links into it.
      const std::uint64_t r =
          params.r[static_cast<std::size_t>(table.level)];
      table.child_pod_ports.resize(r);
      const std::uint64_t my_pod = topo.pod_of(s).value();
      for (const Topology::Neighbor& nb : topo.down_neighbors(s)) {
        const SwitchId below = topo.switch_of(nb.node);
        const std::uint64_t child_pod = topo.pod_of(below).value();
        const std::uint64_t ordinal = child_pod - my_pod * r;
        ASPEN_ASSERT(ordinal < r, "child pod ", child_pod,
                     " is not nested under pod ", my_pod, " (Eq. 3)");
        table.child_pod_ports[ordinal].push_back(nb);
      }
    }
  }
  return tables;
}

LabelRouter::LabelRouter(const Topology& topo)
    : topo_(&topo),
      tables_(build_compact_tables(topo)),
      edges_per_pod_(edges_per_pod(topo.params())) {}

std::span<const Topology::Neighbor> LabelRouter::next_hops(
    SwitchId at, HostId dst,
    std::vector<Topology::Neighbor>& /*scratch*/) const {
  const Topology& topo = *topo_;
  const TreeParams& params = topo.params();
  const CompactTable& table = tables_.at(at.value());
  const auto half_k = static_cast<std::uint64_t>(params.k) / 2;
  const std::uint64_t edge = dst.value() / half_k;

  if (table.level == 1) {
    if (topo.index_in_level(at) == edge) {
      // Own host: the d_0 entry.
      return table.child_pod_ports[dst.value() % half_k];
    }
    return table.up_ports;  // default route
  }

  // Longest-prefix match: is the destination under my pod?
  const std::uint64_t my_span =
      edges_per_pod_[static_cast<std::size_t>(table.level)];
  if (edge / my_span != topo.pod_of(at).value()) {
    return table.up_ports;  // default route
  }
  // Next label digit selects the child pod.
  const std::uint64_t child_span =
      edges_per_pod_[static_cast<std::size_t>(table.level) - 1];
  const std::uint64_t child_pod = edge / child_span;
  const std::uint64_t r = params.r[static_cast<std::size_t>(table.level)];
  return table.child_pod_ports[child_pod -
                               topo.pod_of(at).value() * r];
}

std::uint64_t LabelRouter::total_entries() const {
  std::uint64_t total = 0;
  for (const CompactTable& table : tables_) total += table.entries();
  return total;
}

ForwardingStateStats forwarding_state_stats(const Topology& topo) {
  const LabelRouter router(topo);
  ForwardingStateStats stats;
  stats.compact_entries = router.total_entries();
  stats.flat_edge_entries = topo.num_switches() * topo.params().S;
  stats.flat_host_entries = topo.num_switches() * topo.num_hosts();
  stats.mean_compact_per_switch =
      static_cast<double>(stats.compact_entries) /
      static_cast<double>(topo.num_switches());
  return stats;
}

}  // namespace aspen
