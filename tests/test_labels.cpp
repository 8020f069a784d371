// Tests for hierarchical labels and compact prefix forwarding (§5.3).
#include <gtest/gtest.h>

#include <algorithm>

#include "src/aspen/enumerate.h"
#include "src/aspen/generator.h"
#include "src/labels/labels.h"
#include "src/routing/reachability.h"
#include "src/util/status.h"

namespace aspen {
namespace {

TEST(Labels, RoundTripEveryHost) {
  for (const auto& ftv : std::vector<std::vector<int>>{
           {0, 0}, {0, 0, 0}, {1, 0, 0}, {0, 2, 0}}) {
    const int n = static_cast<int>(ftv.size()) + 1;
    const int k = ftv.size() == 2 && ftv[1] == 2 ? 6 : 4;
    const auto params = try_generate_tree(n, k, FaultToleranceVector(ftv));
    if (!params) continue;
    const Topology topo = Topology::build(*params);
    SCOPED_TRACE(topo.describe());
    for (std::uint32_t h = 0; h < topo.num_hosts(); ++h) {
      const HostLabel label = label_of(topo, HostId{h});
      EXPECT_EQ(label.digits.size(), static_cast<std::size_t>(params->n));
      EXPECT_EQ(host_of_label(topo, label), HostId{h});
    }
  }
}

TEST(Labels, DigitsRespectRadixes) {
  const Topology topo = Topology::build(fat_tree(3, 4));
  const TreeParams& params = topo.params();
  for (std::uint32_t h = 0; h < topo.num_hosts(); ++h) {
    const HostLabel label = label_of(topo, HostId{h});
    // d_{n-1} ∈ [0, r_n), d_1 ∈ [0, r_2), d_0 ∈ [0, k/2).
    EXPECT_LT(label.digits[0], params.r[3]);
    EXPECT_LT(label.digits[1], params.r[2]);
    EXPECT_LT(label.digits[2], 2u);
  }
}

TEST(Labels, KnownValues) {
  const Topology topo = Topology::build(fat_tree(3, 4));
  // Host 0: first pod, first edge, first host → 0.0.0.
  EXPECT_EQ(label_of(topo, HostId{0}).to_string(), "0.0.0");
  // Host 15: last pod (3), second edge (1), second host (1).
  EXPECT_EQ(label_of(topo, HostId{15}).to_string(), "3.1.1");
  // Hosts on the same edge share all but the last digit.
  const HostLabel a = label_of(topo, HostId{4});
  const HostLabel b = label_of(topo, HostId{5});
  EXPECT_EQ(a.digits[0], b.digits[0]);
  EXPECT_EQ(a.digits[1], b.digits[1]);
  EXPECT_NE(a.digits[2], b.digits[2]);
}

TEST(Labels, HostOfLabelValidatesDigits) {
  const Topology topo = Topology::build(fat_tree(3, 4));
  HostLabel label = label_of(topo, HostId{0});
  label.digits[0] = 99;
  EXPECT_THROW((void)host_of_label(topo, label), PreconditionError);
  label.digits.resize(2);
  EXPECT_THROW((void)host_of_label(topo, label), PreconditionError);
}

TEST(Labels, CompactTableShapes) {
  const Topology topo =
      Topology::build(generate_tree(4, 6, FaultToleranceVector{0, 2, 0}));
  const auto tables = build_compact_tables(topo);
  const TreeParams& params = topo.params();
  for (std::uint32_t v = 0; v < topo.num_switches(); ++v) {
    const CompactTable& table = tables[v];
    const SwitchId s{v};
    if (table.level == 1) {
      EXPECT_EQ(table.child_pod_ports.size(), 3u);  // k/2 hosts
      EXPECT_EQ(table.entries(), 4u);
    } else {
      const std::uint64_t r = params.r[static_cast<std::size_t>(
          table.level)];
      EXPECT_EQ(table.child_pod_ports.size(), r);
      // Each child-pod entry holds exactly c_i ECMP ports.
      for (const auto& ports : table.child_pod_ports) {
        EXPECT_EQ(ports.size(),
                  params.c[static_cast<std::size_t>(table.level)])
            << to_string(s);
      }
    }
    if (table.level == topo.levels()) {
      EXPECT_TRUE(table.up_ports.empty());
    } else {
      EXPECT_EQ(table.up_ports.size(), 3u);  // k/2 uplinks
    }
  }
}

TEST(Labels, LabelRouterDeliversAllPairs) {
  for (const auto& ftv :
       std::vector<std::vector<int>>{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}}) {
    const Topology topo =
        Topology::build(generate_tree(4, 4, FaultToleranceVector(ftv)));
    SCOPED_TRACE(topo.describe());
    const LabelRouter router(topo);
    const LinkStateOverlay intact(topo);
    const ReachabilityStats stats = measure_all_pairs(topo, router, intact);
    EXPECT_EQ(stats.undelivered(), 0u);
    EXPECT_EQ(stats.looped, 0u);
  }
}

TEST(Labels, LabelRouterMatchesStructuralRouter) {
  const Topology topo =
      Topology::build(generate_tree(4, 4, FaultToleranceVector{0, 1, 0}));
  const LabelRouter labels(topo);
  const StructuralRouter structural(topo);
  for (std::uint32_t v = 0; v < topo.num_switches(); ++v) {
    const SwitchId s{v};
    for (std::uint32_t d = 0; d < topo.num_hosts(); d += 3) {
      const HostId dst{d};
      if (topo.level_of(s) == 1 &&
          topo.edge_switch_of(dst) == s) {
        continue;  // structural router refuses the destination edge
      }
      std::vector<Topology::Neighbor> scratch;
      const auto a_row = labels.next_hops(s, dst, scratch);
      std::vector<Topology::Neighbor> a(a_row.begin(), a_row.end());
      const auto b_row = structural.next_hops(s, dst, scratch);
      std::vector<Topology::Neighbor> b(b_row.begin(), b_row.end());
      const auto key = [](const Topology::Neighbor& nb) {
        return nb.link.value();
      };
      std::ranges::sort(a, {}, key);
      std::ranges::sort(b, {}, key);
      EXPECT_EQ(a, b) << to_string(s) << " → " << to_string(dst);
    }
  }
}

TEST(Labels, CompactStateBeatsFlatStateByOrders) {
  const Topology topo = Topology::build(fat_tree(3, 16));
  const ForwardingStateStats stats = forwarding_state_stats(topo);
  EXPECT_LT(stats.compact_entries * 10, stats.flat_edge_entries);
  EXPECT_LT(stats.flat_edge_entries, stats.flat_host_entries);
  EXPECT_GT(stats.mean_compact_per_switch, 1.0);
  // Edge: k/2+1, agg: r_2+1 = 9, core: r_3 = 16 (no up default).
  EXPECT_EQ(stats.compact_entries,
            128u * 9 + 128u * 9 + 64u * 16);
}

TEST(Labels, FaultToleranceShrinksCompactTables) {
  // Higher c_i means fewer child pods per switch (r_i = (k/2)/c_i): the
  // same §5.3 tradeoff seen from the TCAM's perspective.
  const Topology fat = Topology::build(fat_tree(4, 6));
  const Topology aspen =
      Topology::build(generate_tree(4, 6, FaultToleranceVector{0, 2, 0}));
  const ForwardingStateStats a = forwarding_state_stats(fat);
  const ForwardingStateStats b = forwarding_state_stats(aspen);
  EXPECT_GT(a.mean_compact_per_switch, b.mean_compact_per_switch);
}

TEST(Labels, TotalEntriesAccounting) {
  const Topology topo = Topology::build(fat_tree(3, 4));
  const LabelRouter router(topo);
  // 8 edges × (2+1) + 8 aggs × (2+1) + 4 cores × 4 = 24 + 24 + 16.
  EXPECT_EQ(router.total_entries(), 64u);
}

}  // namespace
}  // namespace aspen
