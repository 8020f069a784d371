// Tests for the in-flight window-of-vulnerability measurement (§8.4).
#include <gtest/gtest.h>

#include "src/aspen/fixed_hosts.h"
#include "src/aspen/generator.h"
#include "src/proto/experiment.h"
#include "src/proto/inflight.h"
#include "src/routing/updown.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace aspen {
namespace {

std::vector<Flow> all_cross_flows(const Topology& topo) {
  // One flow from every host to a host in the "opposite" half.
  std::vector<Flow> flows;
  const auto hosts = static_cast<std::uint32_t>(topo.num_hosts());
  for (std::uint32_t s = 0; s < hosts; ++s) {
    flows.push_back(Flow{HostId{s}, HostId{(s + hosts / 2) % hosts}});
  }
  return flows;
}

TEST(Inflight, NoFailureMeansNoLoss) {
  const Topology topo = Topology::build(fat_tree(3, 4));
  AnpSimulation anp(topo);
  const RoutingState before = anp.tables();
  FailureReport empty_report;
  empty_report.table_change_completed.assign(
      topo.num_switches(), FailureReport::kNoChange);
  const LinkStateOverlay intact(topo);
  for (const Flow& flow : all_cross_flows(topo)) {
    const WalkResult walk = walk_during_convergence(
        topo, before, before, empty_report, intact, flow.src, flow.dst, 0.0);
    EXPECT_TRUE(walk.delivered());
  }
}

TEST(Inflight, LossStopsAfterConvergence) {
  // Packets injected after every switch has updated see only new tables:
  // on a coverable failure under extended ANP, zero loss.
  const Topology topo =
      Topology::build(generate_tree(4, 4, FaultToleranceVector{1, 0, 0}));
  AnpOptions extended;
  extended.notify_children = true;
  const LinkId link = topo.links_at_level(2)[0];
  const auto curve = run_window_experiment(
      ProtocolKind::kAnp, topo, link, all_cross_flows(topo),
      {0.0, 10.0, 1000.0}, DelayModel{}, extended);
  ASSERT_EQ(curve.size(), 3u);
  // Long after convergence: no loss.
  EXPECT_EQ(curve[2].lost, 0u);
  // At t=0 some flows race into the dead region.
  EXPECT_GE(curve[0].lost, curve[2].lost);
}

TEST(Inflight, AnpWindowShorterThanLsp) {
  const int k = 4;
  const int n = 3;
  const Topology fat = Topology::build(fat_tree(n, k));
  const Topology aspen =
      Topology::build(design_fixed_host_tree(n, k, /*extra_levels=*/1));

  // Sweep injection times; the window length is the last sample with loss.
  std::vector<SimTime> times;
  for (SimTime t = 0.0; t <= 1500.0; t += 25.0) times.push_back(t);

  const auto window_end = [&](const std::vector<WindowSample>& curve) {
    SimTime end = 0.0;
    for (const WindowSample& s : curve) {
      if (s.lost > 0) end = s.inject_ms;
    }
    return end;
  };

  AnpOptions extended;
  extended.notify_children = true;
  // Pick the same structural failure in both trees: an L2 downlink.
  const auto lsp_curve = run_window_experiment(
      ProtocolKind::kLsp, fat, fat.links_at_level(2)[0],
      all_cross_flows(fat), times);
  const auto anp_curve = run_window_experiment(
      ProtocolKind::kAnp, aspen, aspen.links_at_level(2)[0],
      all_cross_flows(aspen), times, DelayModel{}, extended);

  const SimTime lsp_window = window_end(lsp_curve);
  const SimTime anp_window = window_end(anp_curve);
  EXPECT_GT(lsp_window, 250.0);   // LSA-rate reaction
  EXPECT_LT(anp_window, 100.0);   // notification-rate reaction
  EXPECT_GT(lsp_window, 3 * anp_window);
}

TEST(Inflight, UncoveredFailureLeaksForever) {
  // Fat tree + faithful ANP: the loss never stops (no redundancy and no
  // global re-convergence).
  const Topology topo = Topology::build(fat_tree(3, 4));
  const LinkId link = topo.links_at_level(2)[0];
  const auto curve =
      run_window_experiment(ProtocolKind::kAnp, topo, link,
                            all_cross_flows(topo), {0.0, 10'000.0});
  EXPECT_GT(curve[1].lost, 0u);
}

TEST(Inflight, CurveIsMonotoneOnceConverged) {
  const Topology topo =
      Topology::build(generate_tree(4, 4, FaultToleranceVector{0, 1, 0}));
  const LinkId link = topo.links_at_level(2)[0];
  AnpOptions extended;
  extended.notify_children = true;
  std::vector<SimTime> times{0.0, 20.0, 40.0, 80.0, 160.0, 320.0};
  const auto curve = run_window_experiment(ProtocolKind::kAnp, topo, link,
                                           all_cross_flows(topo), times,
                                           DelayModel{}, extended);
  // After the final change time (<= convergence), loss is zero and stays.
  EXPECT_EQ(curve.back().lost, 0u);
}

TEST(Inflight, ReportWithoutChangeTimesRejected) {
  const Topology topo = Topology::build(fat_tree(3, 4));
  AnpSimulation anp(topo);
  const FailureReport bogus;  // empty table_change_completed
  const LinkStateOverlay intact(topo);
  EXPECT_THROW((void)walk_during_convergence(topo, anp.tables(),
                                             anp.tables(), bogus, intact,
                                             HostId{0}, HostId{8}, 0.0),
               PreconditionError);
}

TEST(Inflight, RecoveryTransitionNeverDropsPackets) {
  // The recovery-side window: tables move from avoid-the-link back to
  // use-the-link while the link is already up.  Both generations of
  // routes are valid on the healed fabric, so packets injected at any
  // instant of the transition must get through.
  const Topology topo =
      Topology::build(generate_tree(4, 4, FaultToleranceVector{1, 0, 0}));
  const LinkId link = topo.links_at_level(2)[0];
  AnpOptions extended;
  extended.notify_children = true;
  AnpSimulation anp(topo, DelayModel{}, extended);
  (void)anp.simulate_link_failure(link);
  const RoutingState during_failure = anp.tables();
  const FailureReport recovery = anp.simulate_link_recovery(link);
  const RoutingState healed = anp.tables();
  ASSERT_GT(switches_with_changed_tables(during_failure, healed), 0u);

  for (const SimTime inject :
       {0.0, 1.0, 5.0, 10.0, 20.0, 50.0, recovery.convergence_time_ms,
        recovery.convergence_time_ms + 100.0}) {
    for (const Flow& flow : all_cross_flows(topo)) {
      const WalkResult walk = walk_during_convergence(
          topo, during_failure, healed, recovery, anp.overlay(), flow.src,
          flow.dst, inject);
      EXPECT_TRUE(walk.delivered())
          << "flow " << flow.src.value() << "->" << flow.dst.value()
          << " lost at t=" << inject;
    }
  }
}

/// With no switch flipping, the in-flight walker must retrace the packet
/// walker exactly: same status, node path, hop count, drop site and
/// health verdict — and a repeated walk must agree with itself.
void expect_walkers_agree(const Topology& topo, const RoutingState& tables,
                          const LinkStateOverlay& actual,
                          const std::vector<Flow>& flows,
                          const WalkOptions& options, const char* context) {
  FailureReport no_flips;
  no_flips.table_change_completed.assign(topo.num_switches(),
                                         FailureReport::kNoChange);
  const TableRouter router(tables);
  for (const Flow& flow : flows) {
    const WalkResult inflight = walk_during_convergence(
        topo, tables, tables, no_flips, actual, flow.src, flow.dst, 0.0,
        options);
    const WalkResult again = walk_during_convergence(
        topo, tables, tables, no_flips, actual, flow.src, flow.dst, 0.0,
        options);
    const WalkResult plain =
        walk_packet(topo, router, actual, flow.src, flow.dst, options);
    const auto where = [&] {
      return ::testing::Message()
             << context << " flow " << flow.src.value() << "->"
             << flow.dst.value() << " aware "
             << options.local_link_awareness;
    };
    ASSERT_EQ(inflight.status, again.status) << where();
    ASSERT_EQ(inflight.path, again.path) << where();
    ASSERT_EQ(inflight.status, plain.status) << where();
    ASSERT_EQ(inflight.path, plain.path) << where();
    ASSERT_EQ(inflight.hops, plain.hops) << where();
    ASSERT_EQ(inflight.dropped_at, plain.dropped_at) << where();
    ASSERT_EQ(inflight.health_loss, plain.health_loss) << where();
  }
}

TEST(Inflight, GrayWalkDeterministicAndConsistentWithPacketWalk) {
  // The in-flight walker and the plain packet walker key their gray-drop
  // hash identically, so the same pinned seed gives the same fate.
  const Topology topo = Topology::build(fat_tree(3, 4));
  AnpSimulation anp(topo);
  LinkStateOverlay actual(topo);
  actual.set_gray(topo.host_uplink(HostId{5}).link, 0.5);
  std::vector<Flow> to_five;
  for (std::uint32_t s = 0; s < topo.num_hosts(); ++s) {
    if (s != 5) to_five.push_back(Flow{HostId{s}, HostId{5}});
  }
  WalkOptions options;
  options.health_seed = 7;
  expect_walkers_agree(topo, anp.tables(), actual, to_five, options,
                       "fat tree, gray host link");
}

TEST(Inflight, NoFlipWalkRetracesPacketWalkOnFig3Tree) {
  const Topology topo =
      Topology::build(generate_tree(4, 6, FaultToleranceVector{0, 2, 0}));
  const RoutingState tables = compute_updown_routes(topo);
  Rng rng(17);
  std::vector<Flow> flows;
  for (int i = 0; i < 48; ++i) {
    const auto s = static_cast<std::uint32_t>(rng.index(topo.num_hosts()));
    auto d = static_cast<std::uint32_t>(rng.index(topo.num_hosts() - 1));
    if (d >= s) ++d;
    flows.push_back(Flow{HostId{s}, HostId{d}});
  }

  for (const bool aware : {true, false}) {
    WalkOptions options;
    options.local_link_awareness = aware;
    options.flow_seed = 3;
    expect_walkers_agree(topo, tables, LinkStateOverlay(topo), flows,
                         options, "intact");
    // Stale tables over each single-link failure.
    for (std::uint64_t l = 0; l < topo.num_links(); ++l) {
      LinkStateOverlay failed(topo);
      failed.fail(LinkId{static_cast<std::uint32_t>(l)});
      expect_walkers_agree(topo, tables, failed, flows, options,
                           "single-link failure");
    }
    // Gray links at every level, host links included.
    LinkStateOverlay gray(topo);
    for (Level level = 1; level <= topo.levels(); ++level) {
      const auto links = topo.links_at_level(level);
      for (std::size_t j = 0; j < links.size(); j += 3) {
        gray.set_gray(links[j], 0.4);
      }
    }
    options.health_seed = 29;
    expect_walkers_agree(topo, tables, gray, flows, options, "gray links");
  }
}

}  // namespace
}  // namespace aspen
