// Tests for global up*/down* route computation.
#include <gtest/gtest.h>

#include "src/aspen/generator.h"
#include "src/routing/updown.h"
#include "src/util/status.h"

namespace aspen {
namespace {

TEST(Updown, IntactFatTreeCosts) {
  const Topology topo = Topology::build(fat_tree(3, 4));
  const RoutingState routes = compute_updown_routes(topo);

  // At an edge switch: own dest costs 0; same-pod edge costs 2 (up, down);
  // remote edge costs 4.
  const SwitchId edge0 = topo.switch_at(1, 0);
  EXPECT_EQ(routes.tables.row(edge0.value(), 0).cost, 0);
  EXPECT_EQ(routes.tables.row(edge0.value(), 1).cost, 2);  // sibling in pod 0
  EXPECT_EQ(routes.tables.row(edge0.value(), 7).cost, 4);  // farthest pod

  // At a core: every edge costs 2 (straight down).
  const SwitchId core = topo.switch_at(3, 0);
  for (std::uint64_t e = 0; e < topo.params().S; ++e) {
    EXPECT_EQ(routes.tables.row(core.value(), e).cost, 2);
  }
}

TEST(Updown, EcmpSetSizes) {
  const Topology topo = Topology::build(fat_tree(3, 4));
  const RoutingState routes = compute_updown_routes(topo);
  const SwitchId edge0 = topo.switch_at(1, 0);
  // Climbing anywhere: both uplinks are equal-cost options.
  EXPECT_EQ(routes.tables.hops(routes.tables.row(edge0.value(), 7)).size(), 2u);
  // An agg descending to an edge in its pod: single link.
  const SwitchId agg = topo.switch_at(2, 0);
  EXPECT_EQ(routes.tables.hops(routes.tables.row(agg.value(), 0)).size(), 1u);
  // An agg climbing to a remote pod: both its core uplinks.
  EXPECT_EQ(routes.tables.hops(routes.tables.row(agg.value(), 7)).size(), 2u);
}

TEST(Updown, EveryDestinationReachableInIntactTree) {
  for (const auto& ftv : std::vector<std::vector<int>>{
           {0, 0}, {1, 0}, {0, 0, 0}, {1, 0, 0}, {0, 1, 0}}) {
    const int n = static_cast<int>(ftv.size()) + 1;
    const Topology topo =
        Topology::build(generate_tree(n, 4, FaultToleranceVector(ftv)));
    const RoutingState routes = compute_updown_routes(topo);
    SCOPED_TRACE(topo.describe());
    for (std::uint32_t v = 0; v < topo.num_switches(); ++v) {
      for (std::uint64_t e = 0; e < routes.num_dests(); ++e) {
        const auto& entry = routes.tables.row(v, e);
        EXPECT_TRUE(entry.reachable() || entry.cost == 0)
            << to_string(SwitchId{v}) << " → edge " << e;
      }
    }
  }
}

TEST(Updown, CostsDecreaseAlongNextHops) {
  // Loop-freedom: every next hop strictly reduces the remaining cost.
  const Topology topo =
      Topology::build(generate_tree(4, 4, FaultToleranceVector{1, 0, 0}));
  const RoutingState routes = compute_updown_routes(topo);
  for (std::uint32_t v = 0; v < topo.num_switches(); ++v) {
    for (std::uint64_t e = 0; e < topo.params().S; ++e) {
      const auto& entry = routes.tables.row(v, e);
      for (const auto& nb : routes.tables.hops(routes.tables.row(v, e))) {
        const auto& next_entry =
            routes.tables.row(topo.switch_of(nb.node).value(), e);
        ASSERT_TRUE(next_entry.cost == 0 || next_entry.reachable());
        EXPECT_EQ(next_entry.cost, entry.cost - 1);
      }
    }
  }
}

TEST(Updown, FailureRemovesOnlyAffectedRoutes) {
  const Topology topo = Topology::build(fat_tree(3, 4));
  LinkStateOverlay overlay(topo);

  // Fail the (single) link from agg (2,0) down to edge 0.
  const SwitchId agg = topo.switch_at(2, 0);
  const SwitchId edge0 = topo.switch_at(1, 0);
  const LinkId link = topo.find_link(agg, edge0);
  ASSERT_TRUE(link.valid());
  overlay.fail(link);

  const RoutingState routes = compute_updown_routes(topo, overlay);
  // Up*/down* semantics make agg genuinely unable to reach edge 0: its own
  // cores' only descent to edge 0 ran through the failed link, and a valid
  // path may never come back up.  (This is exactly why the failure "dooms"
  // packets in §2 — there is no legal detour from inside the dead region.)
  EXPECT_FALSE(routes.tables.row(agg.value(), 0).reachable());
  // Cores attached to the *other* pod member (odd indices under standard
  // striping) still reach edge 0.
  const SwitchId core1 = topo.switch_at(3, 1);
  EXPECT_EQ(routes.tables.row(core1.value(), 0).cost, 2);
  // The pod sibling still reaches edge 0 directly.
  const SwitchId sibling = topo.switch_at(2, 1);
  EXPECT_EQ(routes.tables.row(sibling.value(), 0).cost, 1);
  // Remote destinations unaffected at agg.
  EXPECT_EQ(routes.tables.row(agg.value(), 7).cost, 3);
}

TEST(Updown, DisconnectionYieldsUnreachableEntries) {
  const Topology topo = Topology::build(fat_tree(3, 4));
  LinkStateOverlay overlay(topo);
  // Sever both uplinks of edge 0: nobody can route to it (down paths all
  // start above it), and it cannot route out.
  const SwitchId edge0 = topo.switch_at(1, 0);
  for (const auto& nb : topo.up_neighbors(edge0)) overlay.fail(nb.link);

  const RoutingState routes = compute_updown_routes(topo, overlay);
  const SwitchId core = topo.switch_at(3, 0);
  EXPECT_FALSE(routes.tables.row(core.value(), 0).reachable());
  EXPECT_EQ(routes.tables.row(core.value(), 0).cost,
            RoutingTables::kUnreachable);
  EXPECT_FALSE(routes.tables.row(edge0.value(), 5).reachable());
}

TEST(Updown, ChangedTableCountForCoreFailure) {
  const Topology topo = Topology::build(fat_tree(3, 4));
  const RoutingState before = compute_updown_routes(topo);

  LinkStateOverlay overlay(topo);
  // Fail core 0 → agg (pod 0, member 0).
  const SwitchId core = topo.switch_at(3, 0);
  const SwitchId agg = topo.switch_at(2, 0);
  const LinkId link = topo.find_link(core, agg);
  ASSERT_TRUE(link.valid());
  overlay.fail(link);
  const RoutingState after = compute_updown_routes(topo, overlay);

  const std::uint64_t changed = switches_with_changed_tables(before, after);
  // The endpoints change; aggs in other pods drop the dead core from their
  // ECMP sets toward pod 0; edges keep their (agg-level) choices.
  EXPECT_GE(changed, 2u);
  EXPECT_LT(changed, topo.num_switches());
  EXPECT_FALSE(
      RoutingTables::switch_equal(before.tables, after.tables, core.value()));
  EXPECT_FALSE(
      RoutingTables::switch_equal(before.tables, after.tables, agg.value()));
  // Edge switches in remote pods are untouched.
  EXPECT_TRUE(RoutingTables::switch_equal(before.tables, after.tables,
                                          topo.switch_at(1, 7).value()));
}

TEST(Updown, ChangedTablesRequiresSameShape) {
  const Topology a = Topology::build(fat_tree(3, 4));
  const Topology b = Topology::build(fat_tree(4, 4));
  const RoutingState ra = compute_updown_routes(a);
  const RoutingState rb = compute_updown_routes(b);
  EXPECT_THROW((void)switches_with_changed_tables(ra, rb), PreconditionError);
}

TEST(Updown, AspenRedundancyWidensDownEcmp) {
  // FTV <0,1,0>: L3 switches have two links into their child pod, so their
  // descending entries hold two next hops where a fat tree has one.
  const Topology topo =
      Topology::build(generate_tree(4, 4, FaultToleranceVector{0, 1, 0}));
  const RoutingState routes = compute_updown_routes(topo);
  const SwitchId l3 = topo.switch_at(3, 0);
  bool found_double = false;
  for (std::uint64_t e = 0; e < topo.params().S; ++e) {
    const auto& entry = routes.tables.row(l3.value(), e);
    if (entry.cost == 2 && entry.hop_count == 2) found_double = true;
  }
  EXPECT_TRUE(found_double);
}

}  // namespace
}  // namespace aspen
