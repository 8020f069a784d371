// Odds and ends: API surface not central enough for its own suite but
// still worth locking down.
#include <gtest/gtest.h>

#include "src/aspen/generator.h"
#include "src/routing/updown.h"
#include "src/topo/export.h"
#include "src/topo/topology.h"
#include "src/util/contracts.h"
#include "src/util/parallel.h"
#include "src/util/status.h"

namespace aspen {
namespace {

TEST(MiscCoverage, DotWithoutRanking) {
  const Topology topo = Topology::build(fat_tree(3, 4));
  DotOptions options;
  options.rank_by_level = false;
  const std::string dot = to_dot(topo, options);
  EXPECT_EQ(dot.find("rank=same"), std::string::npos);
  EXPECT_NE(dot.find("s0 -- "), std::string::npos);

  options.rank_by_level = true;
  EXPECT_NE(to_dot(topo, options).find("rank=same"), std::string::npos);
}

TEST(MiscCoverage, ForwardingTableReachableCount) {
  const Topology topo = Topology::build(fat_tree(3, 4));
  const RoutingState routes = compute_updown_routes(topo);
  const SwitchId core = topo.switch_at(3, 0);
  EXPECT_EQ(routes.tables.reachable_count(core.value()), topo.params().S);

  LinkStateOverlay overlay(topo);
  const SwitchId edge0 = topo.switch_at(1, 0);
  for (const auto& nb : topo.up_neighbors(edge0)) overlay.fail(nb.link);
  const RoutingState degraded = compute_updown_routes(topo, overlay);
  EXPECT_EQ(degraded.tables.reachable_count(core.value()), topo.params().S - 1);
}

TEST(MiscCoverage, DescribeStringsAreInformative) {
  const Topology topo =
      Topology::build(generate_tree(4, 6, FaultToleranceVector{0, 2, 0}),
                      StripingConfig{StripingKind::kRotated, 0});
  const std::string desc = topo.describe();
  EXPECT_NE(desc.find("n=4"), std::string::npos);
  EXPECT_NE(desc.find("rotated"), std::string::npos);
  EXPECT_NE(desc.find("hosts=54"), std::string::npos);
}

TEST(MiscCoverage, SwitchesAtLevelBounds) {
  const TreeParams t = fat_tree(4, 4);
  EXPECT_EQ(t.switches_at_level(1), t.S);
  EXPECT_EQ(t.switches_at_level(4), t.S / 2);
  EXPECT_THROW((void)t.switches_at_level(0), PreconditionError);
  EXPECT_THROW((void)t.switches_at_level(5), PreconditionError);
}

TEST(MiscCoverage, AggregationLevelBounds) {
  const TreeParams t = fat_tree(3, 4);
  EXPECT_THROW((void)t.aggregation_at_level(1), PreconditionError);
  EXPECT_THROW((void)t.fault_tolerance_at_level(4), PreconditionError);
}

TEST(MiscCoverage, PodQueryBounds) {
  const Topology topo = Topology::build(fat_tree(3, 4));
  EXPECT_THROW((void)topo.pod_members(2, PodId{99}), PreconditionError);
  EXPECT_THROW((void)topo.parent_pod(3, PodId{0}), PreconditionError);
  EXPECT_THROW((void)topo.child_pods(1, PodId{0}), PreconditionError);
  EXPECT_THROW((void)topo.pods_at_level(0), PreconditionError);
  EXPECT_THROW((void)topo.links_at_level(9), PreconditionError);
  EXPECT_THROW((void)topo.hosts_of_edge(topo.switch_at(2, 0)),
               PreconditionError);
}

TEST(MiscCoverage, NodeRangeChecks) {
  const Topology topo = Topology::build(fat_tree(3, 4));
  EXPECT_THROW((void)topo.node_of(SwitchId{999}), PreconditionError);
  EXPECT_THROW((void)topo.node_of(HostId{999}), PreconditionError);
  EXPECT_THROW((void)topo.link(LinkId{9999}), PreconditionError);
  EXPECT_THROW((void)topo.level_of(SwitchId{999}), PreconditionError);
  EXPECT_THROW((void)topo.host_uplink(HostId{999}), PreconditionError);
}

TEST(MiscCoverage, FindLinkReturnsInvalidForStrangers) {
  const Topology topo = Topology::build(fat_tree(3, 4));
  // An agg and an edge switch in a different pod share no link.
  EXPECT_FALSE(
      topo.find_link(topo.switch_at(2, 0), topo.switch_at(1, 7)).valid());
  std::vector<LinkId> between;
  topo.links_between(topo.switch_at(2, 0), topo.switch_at(1, 7), between);
  EXPECT_TRUE(between.empty());
}

// Paranoid audits combined with a multi-threaded routing pool: every other
// routing test here runs at the default (single orchestrator) thread count
// or the default audit level, leaving the paranoid × threads>1 cell of the
// matrix untested before this case existed.
TEST(MiscCoverage, ParanoidThreadedRecomputeMatchesFresh) {
  const contracts::ScopedPolicy paranoid(contracts::policy(),
                                         contracts::AuditLevel::kParanoid);
  const Topology topo =
      Topology::build(generate_tree(4, 6, FaultToleranceVector{0, 2, 0}));
  LinkStateOverlay overlay(topo);
  for (const int threads : {2, 4}) {
    parallel::set_num_threads(threads);
    RoutingState state =
        compute_updown_routes(topo, overlay, DestGranularity::kEdge);
    const LinkId link = topo.links_at_level(2)[1];
    overlay.fail(link);
    const LinkId changed[] = {link};
    (void)recompute_updown_routes(topo, overlay, state, changed);
    const RoutingState fresh =
        compute_updown_routes(topo, overlay, DestGranularity::kEdge);
    for (std::size_t s = 0; s < fresh.tables.size(); ++s) {
      ASSERT_TRUE(RoutingTables::switch_equal(fresh.tables, state.tables, s))
          << "threads=" << threads << " sw " << s;
    }
    overlay.recover(link);
  }
  parallel::set_num_threads(0);
}

}  // namespace
}  // namespace aspen
