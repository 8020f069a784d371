// Equivalence of the fully distributed LSDB implementation and the fast
// LSP model — the justification for benchmarking with the fast one.
#include <gtest/gtest.h>

#include "src/aspen/generator.h"
#include "src/proto/lsp.h"
#include "src/routing/reachability.h"
#include "src/util/status.h"
#include "tests/lsp_full.h"

namespace aspen {
namespace {

TEST(LspFull, ConvergesToGlobalRecomputation) {
  const Topology topo = Topology::build(fat_tree(3, 4));
  LspLsdbSimulation lsp(topo);
  const LinkId link = topo.links_at_level(3)[0];
  (void)lsp.simulate_link_failure(link);

  LinkStateOverlay failed(topo);
  failed.fail(link);
  const RoutingState expected = compute_updown_routes(topo, failed);
  EXPECT_EQ(switches_with_changed_tables(lsp.tables(), expected), 0u);
}

TEST(LspFull, MatchesFastModelOnEveryFailure) {
  for (const auto& ftv : std::vector<std::vector<int>>{{0, 0}, {1, 0, 0}}) {
    const int n = static_cast<int>(ftv.size()) + 1;
    const Topology topo =
        Topology::build(generate_tree(n, 4, FaultToleranceVector(ftv)));
    SCOPED_TRACE(topo.describe());
    LspSimulation fast(topo);
    LspLsdbSimulation full(topo);
    for (Level level = 2; level <= topo.levels(); ++level) {
      for (const LinkId link : topo.links_at_level(level)) {
        const FailureReport a = fast.simulate_link_failure(link);
        const FailureReport b = full.simulate_link_failure(link);
        EXPECT_EQ(a.switches_reacted, b.switches_reacted)
            << "link " << link.value();
        EXPECT_EQ(a.switches_informed, b.switches_informed);
        EXPECT_EQ(a.messages_sent, b.messages_sent);
        EXPECT_NEAR(a.convergence_time_ms, b.convergence_time_ms, 1e-6);
        EXPECT_EQ(
            switches_with_changed_tables(fast.tables(), full.tables()), 0u);
        (void)fast.simulate_link_recovery(link);
        (void)full.simulate_link_recovery(link);
      }
    }
  }
}

TEST(LspFull, RecoveryRestoresInitialTables) {
  const Topology topo = Topology::build(fat_tree(3, 4));
  LspLsdbSimulation lsp(topo);
  const RoutingState initial = lsp.tables();
  for (const LinkId link : topo.links_at_level(2)) {
    (void)lsp.simulate_link_failure(link);
    (void)lsp.simulate_link_recovery(link);
  }
  EXPECT_EQ(switches_with_changed_tables(initial, lsp.tables()), 0u);
}

TEST(LspFull, SequenceNumbersSuppressStaleFloods) {
  // After many events the per-origin sequence numbers keep rising; a
  // replayed failure must behave identically (no stale-acceptance bugs).
  const Topology topo = Topology::build(fat_tree(3, 4));
  LspLsdbSimulation lsp(topo);
  const LinkId link = topo.links_at_level(3)[2];
  const FailureReport first = lsp.simulate_link_failure(link);
  (void)lsp.simulate_link_recovery(link);
  const FailureReport second = lsp.simulate_link_failure(link);
  EXPECT_EQ(first.switches_reacted, second.switches_reacted);
  EXPECT_EQ(first.messages_sent, second.messages_sent);
  (void)lsp.simulate_link_recovery(link);
}

TEST(LspFull, MultipleOverlappingFailures) {
  // The distributed views stay coherent across accumulated failures —
  // something the fast model gets by construction but the LSDB must earn.
  const Topology topo = Topology::build(fat_tree(3, 6));
  LspLsdbSimulation lsp(topo);
  const std::vector<LinkId> links{topo.links_at_level(3)[0],
                                  topo.links_at_level(2)[7],
                                  topo.links_at_level(3)[9]};
  for (const LinkId link : links) (void)lsp.simulate_link_failure(link);

  LinkStateOverlay failed(topo);
  for (const LinkId link : links) failed.fail(link);
  EXPECT_EQ(switches_with_changed_tables(
                lsp.tables(), compute_updown_routes(topo, failed)),
            0u);

  // Post-convergence delivery over the degraded fabric is complete.
  const TableRouter router(lsp.tables());
  EXPECT_EQ(measure_all_pairs(topo, router, lsp.overlay()).undelivered(),
            0u);

  for (auto it = links.rbegin(); it != links.rend(); ++it) {
    (void)lsp.simulate_link_recovery(*it);
  }
}

TEST(LspFull, SpfHoldDownDelaysInstallsOnly) {
  const Topology topo = Topology::build(fat_tree(3, 4));
  DelayModel paced;
  paced.spf_delay = 5000.0;
  LspLsdbSimulation fastspf(topo);
  LspLsdbSimulation slowspf(topo, paced);
  const LinkId link = topo.links_at_level(3)[0];
  const FailureReport a = fastspf.simulate_link_failure(link);
  const FailureReport b = slowspf.simulate_link_failure(link);
  EXPECT_EQ(a.switches_reacted, b.switches_reacted);
  EXPECT_NEAR(b.convergence_time_ms - a.convergence_time_ms, 5000.0, 1e-6);
  EXPECT_EQ(switches_with_changed_tables(fastspf.tables(), slowspf.tables()),
            0u);
}

TEST(LspFull, DoubleFailureRejected) {
  const Topology topo = Topology::build(fat_tree(3, 4));
  LspLsdbSimulation lsp(topo);
  const LinkId link = topo.links_at_level(2)[0];
  (void)lsp.simulate_link_failure(link);
  EXPECT_THROW((void)lsp.simulate_link_failure(link), PreconditionError);
}

TEST(LspFull, SwitchEventsRejected) {
  // The LSDB model does not model crashes: switch events are refused
  // before they touch the fault plane.
  const Topology topo = Topology::build(fat_tree(3, 4));
  LspLsdbSimulation lsp(topo);
  const SwitchId victim = topo.switch_at(2, 0);
  EXPECT_THROW((void)lsp.simulate_switch_failure(victim), PreconditionError);
  EXPECT_TRUE(lsp.is_alive(victim));
  for (const Topology::Neighbor& nb : topo.up_neighbors(victim)) {
    EXPECT_TRUE(lsp.overlay().is_up(nb.link));
  }
}

}  // namespace
}  // namespace aspen
