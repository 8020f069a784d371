// Tests for host-granularity routing tables: host-link ("1st hop")
// failures become routing-visible, which is how the analytic ANP
// reacting-switch model's host-link term (notifications climbing to the
// roots) gets validated against the discrete-event simulation.
#include <gtest/gtest.h>

#include "src/analysis/react.h"
#include "src/aspen/fixed_hosts.h"
#include "src/aspen/generator.h"
#include "src/proto/experiment.h"
#include "src/routing/packet_walk.h"
#include "src/routing/reachability.h"
#include "src/routing/updown.h"
#include "src/util/status.h"

namespace aspen {
namespace {

Topology fat34() { return Topology::build(fat_tree(3, 4)); }

TEST(HostGranularity, TableSizesAndCosts) {
  const Topology topo = fat34();
  const RoutingState routes =
      compute_updown_routes(topo, LinkStateOverlay(topo),
                            DestGranularity::kHost);
  EXPECT_EQ(routes.granularity, DestGranularity::kHost);
  EXPECT_EQ(routes.num_dests(), topo.num_hosts());
  EXPECT_EQ(routes.dest_index(HostId{5}), 5u);

  // The destination's edge switch holds the host link at cost 1.
  const SwitchId edge = topo.edge_switch_of(HostId{0});
  const auto hops = routes.tables.hops(routes.tables.row(edge.value(), 0));
  EXPECT_EQ(routes.tables.row(edge.value(), 0).cost, 1);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].link, topo.host_uplink(HostId{0}).link);

  // Everyone else pays one hop more than the edge-granularity cost.
  const RoutingState edge_routes = compute_updown_routes(topo);
  const SwitchId core = topo.switch_at(3, 0);
  EXPECT_EQ(routes.tables.row(core.value(), 0).cost,
            edge_routes.tables.row(core.value(), 0).cost + 1);
}

TEST(HostGranularity, DeliversAllPairs) {
  const Topology topo = fat34();
  const LinkStateOverlay intact(topo);
  const RoutingState routes =
      compute_updown_routes(topo, intact, DestGranularity::kHost);
  const TableRouter router(routes);
  const ReachabilityStats stats = measure_all_pairs(topo, router, intact);
  EXPECT_EQ(stats.undelivered(), 0u);
  EXPECT_EQ(stats.looped, 0u);
}

TEST(HostGranularity, EdgeIndexMappingForEdgeTables) {
  const Topology topo = fat34();
  const RoutingState routes = compute_updown_routes(topo);
  EXPECT_EQ(routes.granularity, DestGranularity::kEdge);
  EXPECT_EQ(routes.hosts_per_edge, 2u);
  EXPECT_EQ(routes.dest_index(HostId{0}), 0u);
  EXPECT_EQ(routes.dest_index(HostId{5}), 2u);
}

TEST(HostGranularity, HostLinkFailureIsRoutingVisible) {
  const Topology topo = fat34();
  LinkStateOverlay degraded(topo);
  degraded.fail(topo.host_uplink(HostId{0}).link);
  const RoutingState routes =
      compute_updown_routes(topo, degraded, DestGranularity::kHost);
  // Nobody can reach host 0 — including its own edge switch…
  for (std::uint32_t v = 0; v < topo.num_switches(); ++v) {
    EXPECT_FALSE(routes.tables.row(v, 0).reachable()) << v;
  }
  // …while its edge-mates stay reachable everywhere.
  const SwitchId core = topo.switch_at(3, 0);
  EXPECT_TRUE(routes.tables.row(core.value(), 1).reachable());
}

TEST(HostGranularity, AnpHostLinkNotificationsClimbToRoots) {
  const Topology topo = fat34();
  AnpSimulation anp(topo, DelayModel{}, AnpOptions{},
                    DestGranularity::kHost);
  const FailureReport report =
      anp.simulate_link_failure(topo.host_uplink(HostId{0}).link);
  // Edge switch + its 2 parents + all 4 cores react (nobody has an
  // alternate path to a single-homed host).
  EXPECT_EQ(report.switches_reacted, 7u);
  EXPECT_EQ(report.max_update_hops, 2);  // edge → agg → core
  (void)anp.simulate_link_recovery(topo.host_uplink(HostId{0}).link);
}

TEST(HostGranularity, AnalyticReactModelMatchesDesWithHostLinks) {
  // The Figure 10(c) react model, host links included, against the DES.
  for (const auto& [k, n_fat] :
       std::vector<std::pair<int, int>>{{4, 3}, {6, 3}}) {
    const TreeParams params = design_fixed_host_tree(n_fat, k, 1);
    const Topology topo = Topology::build(params);
    AnpSimulation anp(topo, DelayModel{}, AnpOptions{},
                      DestGranularity::kHost);
    // Host-link failures: analytic = 1 + Σ min((k/2)^j, m_j).
    const double analytic =
        static_cast<double>(anp_reacting_switches(params, 1));
    double measured = 0;
    const auto links = topo.links_at_level(1);
    for (const LinkId link : links) {
      measured += static_cast<double>(
          anp.simulate_link_failure(link).switches_reacted);
      (void)anp.simulate_link_recovery(link);
    }
    measured /= static_cast<double>(links.size());
    EXPECT_NEAR(measured, analytic, analytic * 0.25 + 0.5)
        << "k=" << k << " n=" << n_fat;
  }
}

TEST(HostGranularity, LspHostLinkFailureChangesEveryTable) {
  // At host granularity a host-link failure invalidates that host's entry
  // at *every* switch — the global-reconvergence story of §2.
  const Topology topo = fat34();
  LspSimulation lsp(topo, DelayModel{}, DestGranularity::kHost);
  const FailureReport report =
      lsp.simulate_link_failure(topo.host_uplink(HostId{3}).link);
  EXPECT_EQ(report.switches_reacted, topo.num_switches());
  EXPECT_EQ(report.switches_informed, topo.num_switches());
  (void)lsp.simulate_link_recovery(topo.host_uplink(HostId{3}).link);
}

TEST(HostGranularity, RecoveryRestoresTables) {
  const Topology topo =
      Topology::build(generate_tree(4, 4, FaultToleranceVector{1, 0, 0}));
  for (const auto kind : {ProtocolKind::kLsp, ProtocolKind::kAnp}) {
    auto proto = make_protocol(kind, topo, DelayModel{}, AnpOptions{},
                               DestGranularity::kHost);
    const RoutingState initial = proto->tables();
    for (Level level = 1; level <= topo.levels(); ++level) {
      const auto links = topo.links_at_level(level);
      (void)proto->simulate_link_failure(links[0]);
      (void)proto->simulate_link_recovery(links[0]);
    }
    EXPECT_EQ(switches_with_changed_tables(initial, proto->tables()), 0u)
        << to_cstring(kind);
  }
}

TEST(HostGranularity, SweepOverHostLinks) {
  const Topology topo = fat34();
  SweepOptions options;
  options.granularity = DestGranularity::kHost;
  options.levels = {1};
  const SweepResult anp =
      sweep_link_failures(ProtocolKind::kAnp, topo, options);
  EXPECT_EQ(anp.failures, topo.num_hosts());
  EXPECT_GT(anp.reacted.mean(), 2.0);  // waves climb past the endpoints
  const SweepResult lsp =
      sweep_link_failures(ProtocolKind::kLsp, topo, options);
  EXPECT_DOUBLE_EQ(lsp.reacted.mean(),
                   static_cast<double>(topo.num_switches()));
}

TEST(HostGranularity, ExtendedAnpStillMatchesGroundTruth) {
  const Topology topo =
      Topology::build(generate_tree(4, 4, FaultToleranceVector{0, 1, 0}));
  AnpOptions extended;
  extended.notify_children = true;
  AnpSimulation anp(topo, DelayModel{}, extended, DestGranularity::kHost);
  for (Level level = 1; level <= topo.levels(); ++level) {
    const auto links = topo.links_at_level(level);
    const LinkId link = links[links.size() / 2];
    (void)anp.simulate_link_failure(link);
    const ReachabilityStats anp_stats =
        measure_all_pairs(topo, TableRouter(anp.tables()), anp.overlay());
    const RoutingState truth = compute_updown_routes(
        topo, anp.overlay(), DestGranularity::kHost);
    const ReachabilityStats truth_stats =
        measure_all_pairs(topo, TableRouter(truth), anp.overlay());
    EXPECT_EQ(anp_stats.undelivered(), truth_stats.undelivered())
        << "level " << level;
    (void)anp.simulate_link_recovery(link);
  }
}

}  // namespace
}  // namespace aspen
