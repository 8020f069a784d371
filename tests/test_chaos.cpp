// Tests for the unreliable control plane end-to-end: lossy ANP/LSP runs,
// switch-crash injection, compound timed faults, and chaos campaigns.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "src/aspen/generator.h"
#include "src/fault/chaos.h"
#include "src/proto/experiment.h"
#include "src/routing/updown.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace aspen {
namespace {

Topology make_tree(std::vector<int> ftv, int k = 4) {
  const int n = static_cast<int>(ftv.size()) + 1;
  return Topology::build(generate_tree(n, k, FaultToleranceVector(ftv)));
}

DelayModel lossy_reliable(double drop_rate, std::uint64_t seed) {
  DelayModel delays;
  delays.channel.drop_rate = drop_rate;
  delays.channel.duplicate_rate = 0.05;
  delays.channel.jitter_ms = 0.5;
  delays.channel.seed = seed;
  delays.channel.reliable = true;
  return delays;
}

// ---- Tentpole acceptance: lossy ANP converges to the lossless tables ----

TEST(LossyAnp, RetransmitMatchesLosslessTablesAtTwentyPercentDrop) {
  const Topology topo = make_tree({0, 1, 0});
  const LinkId victim = topo.links_at_level(2)[1];
  // Downward notices multiply the control traffic, so every seed actually
  // exercises the lossy channel.
  const AnpOptions anp{.notify_children = true, .adjacency_resync = false};

  std::uint64_t total_misbehavior = 0;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    AnpSimulation lossless(topo, DelayModel{}, anp);
    const RoutingState initial = lossless.tables();
    (void)lossless.simulate_link_failure(victim);

    AnpSimulation lossy(topo, lossy_reliable(0.2, seed), anp);
    const FailureReport report = lossy.simulate_link_failure(victim);

    total_misbehavior += report.channel_dropped + report.retransmits;
    EXPECT_TRUE(report.quiesced);
    EXPECT_EQ(report.gave_up, 0u);

    // Byte-identical patched tables despite 20% drop.
    EXPECT_EQ(switches_with_changed_tables(lossless.tables(), lossy.tables()),
              0u)
        << "seed " << seed << ": lossy ANP diverged from lossless reaction";

    // And full recovery restores the pre-failure tables exactly.
    (void)lossy.simulate_link_recovery(victim);
    EXPECT_EQ(switches_with_changed_tables(initial, lossy.tables()), 0u)
        << "seed " << seed << ": recovery under loss did not restore";
  }
  // The channel must actually have misbehaved for the above to mean much.
  EXPECT_GT(total_misbehavior, 0u);
}

TEST(LossyAnp, UnreliableChannelCountsDropsButStillQuiesces) {
  const Topology topo = make_tree({0, 1, 0});
  DelayModel delays;
  delays.channel.drop_rate = 0.5;
  delays.channel.seed = 7;
  delays.channel.reliable = false;  // no retransmit: drops are final
  AnpSimulation anp(topo, delays,
                    AnpOptions{.notify_children = true,
                               .adjacency_resync = false});
  const FailureReport report =
      anp.simulate_link_failure(topo.links_at_level(2)[0]);
  EXPECT_TRUE(report.quiesced);
  EXPECT_GT(report.channel_dropped, 0u);
  EXPECT_EQ(report.retransmits, 0u);
}

TEST(LossyLsp, ReliableFloodLeavesNoStaleSwitches) {
  const Topology topo = make_tree({0, 1, 0});
  const LinkId victim = topo.links_at_level(3)[2];

  LspSimulation lossless(topo, DelayModel{});
  (void)lossless.simulate_link_failure(victim);

  LspSimulation lossy(topo, lossy_reliable(0.2, 21));
  const FailureReport report = lossy.simulate_link_failure(victim);
  EXPECT_TRUE(report.quiesced);
  EXPECT_EQ(report.stale_switches, 0u);
  EXPECT_GT(report.retransmits + report.channel_dropped, 0u);
  EXPECT_EQ(switches_with_changed_tables(lossless.tables(), lossy.tables()),
            0u);
}

/// One seeded step of link failures, link recoveries and switch
/// crashes/revivals on `lsp`, honouring each simulate_* precondition.
FailureReport random_lsp_reaction(const Topology& topo, LspSimulation& lsp,
                                  Rng& rng) {
  std::vector<LinkId> live;
  std::vector<LinkId> dead;
  for (Level level = 1; level <= topo.levels(); ++level) {
    for (const LinkId link : topo.links_at_level(level)) {
      (lsp.overlay().is_up(link) ? live : dead).push_back(link);
    }
  }
  std::vector<SwitchId> alive;
  std::vector<SwitchId> crashed;
  for (std::uint32_t s = 0; s < topo.num_switches(); ++s) {
    (lsp.is_alive(SwitchId{s}) ? alive : crashed).push_back(SwitchId{s});
  }
  const double roll = rng.real();
  if (roll < 0.1 && crashed.size() < 2) {
    return lsp.simulate_switch_failure(alive[rng.index(alive.size())]);
  }
  if (roll < 0.2 && !crashed.empty()) {
    return lsp.simulate_switch_recovery(crashed[rng.index(crashed.size())]);
  }
  if (roll < 0.5 && !dead.empty()) {
    return lsp.simulate_link_recovery(dead[rng.index(dead.size())]);
  }
  return lsp.simulate_link_failure(live[rng.index(live.size())]);
}

TEST(LossyLsp, UnreliableHighLossMayStrandSwitchesButIsCounted) {
  // Whatever switches missed the flood are accounted, not silently wrong:
  // after every reaction the switches that reacted are exactly those whose
  // tables changed, and the stale count is exactly the live switches whose
  // tables differ from a fresh computation over the final link state.
  // Stale switches keep differing from the maintained converged routes
  // across runs, so this also drives the diff's full-compare path.
  const std::array trees{make_tree({0, 1, 0}), make_tree({0, 2, 0}, 6),
                         make_tree({1, 0})};
  std::uint64_t stale_total = 0;
  std::uint64_t dropped_total = 0;
  for (const Topology& topo : trees) {
    for (const DestGranularity granularity :
         {DestGranularity::kEdge, DestGranularity::kHost}) {
      for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(testing::Message()
                     << topo.describe() << " host granularity "
                     << (granularity == DestGranularity::kHost) << " seed "
                     << seed);
        DelayModel delays;
        delays.channel.drop_rate = 0.35;
        delays.channel.seed = seed;
        delays.channel.reliable = false;
        LspSimulation lsp(topo, delays, granularity);
        Rng rng(seed);
        for (int step = 0; step < 40; ++step) {
          SCOPED_TRACE(testing::Message() << "step " << step);
          const RoutingState before = lsp.tables();
          const FailureReport report = random_lsp_reaction(topo, lsp, rng);
          ASSERT_TRUE(report.quiesced);
          ASSERT_EQ(switches_with_changed_tables(before, lsp.tables()),
                    report.switches_reacted);
          const RoutingState fresh =
              compute_updown_routes(topo, lsp.overlay(), granularity);
          std::uint64_t stale = 0;
          for (std::uint32_t s = 0; s < topo.num_switches(); ++s) {
            if (lsp.is_alive(SwitchId{s}) &&
                !RoutingTables::switch_equal(lsp.tables().tables,
                                             fresh.tables, s)) {
              ++stale;
            }
          }
          ASSERT_EQ(stale, report.stale_switches);
          stale_total += report.stale_switches;
          dropped_total += report.channel_dropped;
        }
      }
    }
  }
  EXPECT_GT(dropped_total, 0u);
  EXPECT_GT(stale_total, 0u);
}

// ---- Switch crashes ------------------------------------------------------

class SwitchCrashTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(SwitchCrashTest, CrashFailsAllIncidentLinksAtomically) {
  const Topology topo = make_tree({0, 1, 0});
  auto proto = make_protocol(GetParam(), topo);
  const RoutingState initial = proto->tables();

  const SwitchId victim = topo.switch_at(2, 1);
  ASSERT_TRUE(proto->is_alive(victim));
  (void)proto->simulate_switch_failure(victim);

  EXPECT_FALSE(proto->is_alive(victim));
  for (const Topology::Neighbor& nb : topo.up_neighbors(victim)) {
    EXPECT_FALSE(proto->overlay().is_up(nb.link));
  }
  for (const Topology::Neighbor& nb : topo.down_neighbors(victim)) {
    EXPECT_FALSE(proto->overlay().is_up(nb.link));
  }

  (void)proto->simulate_switch_recovery(victim);
  EXPECT_TRUE(proto->is_alive(victim));
  for (const Topology::Neighbor& nb : topo.up_neighbors(victim)) {
    EXPECT_TRUE(proto->overlay().is_up(nb.link));
  }
  EXPECT_EQ(switches_with_changed_tables(initial, proto->tables()), 0u);
}

TEST_P(SwitchCrashTest, CrashWhileReactingDiscardsQueuedWorkThenHeals) {
  const Topology topo = make_tree({0, 1, 0});
  auto proto = make_protocol(GetParam(), topo);
  const RoutingState initial = proto->tables();

  // Fail a link at t=0; 5 ms into the reaction (mid-flight for both
  // protocols' processing delays) crash the link's upper endpoint, whose
  // queued protocol work is discarded.
  const LinkId link = topo.links_at_level(2)[0];
  const SwitchId victim = topo.switch_of(topo.link(link).upper);
  const std::array<TimedFault, 2> schedule{
      TimedFault::link_fail(link),
      TimedFault::switch_fail(victim, 5.0),
  };
  const FailureReport report = proto->simulate_timed_events(schedule);
  EXPECT_TRUE(report.quiesced);
  EXPECT_FALSE(proto->is_alive(victim));

  // Heal in non-LIFO order: revive the switch, then the original link.
  (void)proto->simulate_switch_recovery(victim);
  (void)proto->simulate_link_recovery(link);
  EXPECT_EQ(switches_with_changed_tables(initial, proto->tables()), 0u);
}

TEST_P(SwitchCrashTest, LinkRecoveryOwedToCrashedSwitchWaitsForRevival) {
  const Topology topo = make_tree({0, 1, 0});
  auto proto = make_protocol(GetParam(), topo);
  const RoutingState initial = proto->tables();

  const SwitchId victim = topo.switch_at(3, 0);
  ASSERT_FALSE(topo.down_neighbors(victim).empty());
  const LinkId owed = topo.down_neighbors(victim)[0].link;

  // Fail the link first, then crash one endpoint, then "recover" the link
  // while the endpoint is down: custody passes to the crashed switch and the
  // link must stay down until the switch revives.
  (void)proto->simulate_link_failure(owed);
  (void)proto->simulate_switch_failure(victim);
  const TimedFault recover = TimedFault::link_recover(owed);
  (void)proto->simulate_timed_events({&recover, 1});
  EXPECT_FALSE(proto->overlay().is_up(owed));

  (void)proto->simulate_switch_recovery(victim);
  EXPECT_TRUE(proto->overlay().is_up(owed));
  EXPECT_EQ(switches_with_changed_tables(initial, proto->tables()), 0u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, SwitchCrashTest,
                         ::testing::Values(ProtocolKind::kLsp,
                                           ProtocolKind::kAnp),
                         [](const auto& param_info) {
                           return std::string(to_cstring(param_info.param));
                         });

// ---- Chaos campaigns (tentpole acceptance: 50+ mixed events) ------------

class ChaosCampaignTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ChaosCampaignTest, PerfectChannelCampaignRestoresTables) {
  const Topology topo = make_tree({0, 1, 0});
  ChaosOptions options;
  options.seed = 4;
  options.num_events = 60;
  const ChaosOutcome outcome = run_chaos_campaign(GetParam(), topo, options);

  EXPECT_GE(outcome.link_failures + outcome.switch_crashes +
                outcome.link_recoveries + outcome.switch_recoveries,
            60u);
  EXPECT_GT(outcome.switch_crashes, 0u);  // the mix actually mixed
  EXPECT_GT(outcome.link_failures, 0u);
  EXPECT_GT(outcome.checks, 0u);
  EXPECT_TRUE(outcome.all_quiesced);
  EXPECT_EQ(outcome.ground_truth_violations, 0u);
  EXPECT_TRUE(outcome.tables_restored);
}

TEST_P(ChaosCampaignTest, LossyReliableCampaignRestoresTables) {
  const Topology topo = make_tree({0, 1, 0});
  ChaosOptions options;
  options.seed = 9;
  options.num_events = 60;
  options.delays = lossy_reliable(0.1, 17);
  const ChaosOutcome outcome = run_chaos_campaign(GetParam(), topo, options);

  EXPECT_GT(outcome.messages, 0u);
  EXPECT_GT(outcome.channel_dropped + outcome.retransmits, 0u);
  EXPECT_TRUE(outcome.all_quiesced);
  EXPECT_EQ(outcome.ground_truth_violations, 0u);
  EXPECT_TRUE(outcome.tables_restored);
}

TEST_P(ChaosCampaignTest, DegradedCampaignKeepsInvariants) {
  // Gray and flapping links join the schedule: they add probabilistic
  // data-plane pain (degraded_drops) and can eat control messages, but
  // the physics invariant — walked health-free — and the restoration
  // invariant must survive.  The channel is reliable so health-eaten
  // notifications are retransmitted.
  const Topology topo = make_tree({0, 1, 0});
  ChaosOptions options;
  options.seed = 77;
  options.num_events = 50;
  options.p_degrade = 0.35;
  options.delays.channel.reliable = true;
  const ChaosOutcome outcome = run_chaos_campaign(GetParam(), topo, options);

  EXPECT_EQ(outcome.seed, 77u);
  EXPECT_GT(outcome.gray_injected + outcome.flaps_injected, 0u);
  // Every degradation is eventually healed (in-campaign or at unwind) or
  // subsumed by a real failure of the same link.
  EXPECT_LE(outcome.degradations_cleared,
            outcome.gray_injected + outcome.flaps_injected);
  EXPECT_GT(outcome.degradations_cleared, 0u);
  // Degraded links hurt the data plane without breaking the invariant.
  EXPECT_EQ(outcome.ground_truth_violations, 0u);
  EXPECT_TRUE(outcome.all_quiesced);
  EXPECT_TRUE(outcome.tables_restored);
  // Each injected gray got a side-channel detector watch.
  EXPECT_EQ(outcome.detection_ms.count() + outcome.undetected_grays,
            outcome.gray_injected);
  if (outcome.detection_ms.count() > 0) {
    EXPECT_GT(outcome.detection_ms.mean(), 0.0);
  }
}

TEST(ChaosCampaign, DegradeScheduleDeterministicGivenSeed) {
  const Topology topo = make_tree({0, 1, 0});
  ChaosOptions options;
  options.seed = 5;
  options.num_events = 30;
  options.p_degrade = 0.4;
  options.delays.channel.reliable = true;
  const ChaosOutcome a = run_chaos_campaign(ProtocolKind::kAnp, topo, options);
  const ChaosOutcome b = run_chaos_campaign(ProtocolKind::kAnp, topo, options);
  EXPECT_EQ(a.gray_injected, b.gray_injected);
  EXPECT_EQ(a.flaps_injected, b.flaps_injected);
  EXPECT_EQ(a.degradations_cleared, b.degradations_cleared);
  EXPECT_EQ(a.degraded_drops, b.degraded_drops);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.health_dropped, b.health_dropped);
}

TEST(ChaosCampaign, ZeroDegradeProbabilityMatchesLegacySchedule) {
  // p_degrade = 0 must leave the RNG stream untouched: the campaign
  // replays exactly the schedule it produced before link health existed.
  const Topology topo = make_tree({0, 1, 0});
  ChaosOptions legacy;
  legacy.seed = 13;
  legacy.num_events = 40;
  const ChaosOutcome outcome =
      run_chaos_campaign(ProtocolKind::kAnp, topo, legacy);
  EXPECT_EQ(outcome.gray_injected, 0u);
  EXPECT_EQ(outcome.flaps_injected, 0u);
  EXPECT_EQ(outcome.degraded_drops, 0u);
  EXPECT_EQ(outcome.health_dropped, 0u);
  EXPECT_TRUE(outcome.tables_restored);
}

INSTANTIATE_TEST_SUITE_P(Protocols, ChaosCampaignTest,
                         ::testing::Values(ProtocolKind::kLsp,
                                           ProtocolKind::kAnp),
                         [](const auto& param_info) {
                           return std::string(to_cstring(param_info.param));
                         });

TEST(ChaosCampaign, DeterministicGivenSeed) {
  const Topology topo = make_tree({0, 1, 0});
  ChaosOptions options;
  options.seed = 31;
  options.num_events = 25;
  const ChaosOutcome a = run_chaos_campaign(ProtocolKind::kAnp, topo, options);
  const ChaosOutcome b = run_chaos_campaign(ProtocolKind::kAnp, topo, options);
  EXPECT_EQ(a.link_failures, b.link_failures);
  EXPECT_EQ(a.switch_crashes, b.switch_crashes);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.checked_flows, b.checked_flows);
  EXPECT_EQ(a.protocol_shortfall, b.protocol_shortfall);
}

TEST(TimedFaults, RequireSortedSchedules) {
  const Topology topo = make_tree({0, 0});
  auto proto = make_protocol(ProtocolKind::kAnp, topo);
  const std::array<TimedFault, 2> unsorted{
      TimedFault::link_fail(topo.links_at_level(2)[0], 5.0),
      TimedFault::link_fail(topo.links_at_level(2)[1], 1.0),
  };
  EXPECT_THROW((void)proto->simulate_timed_events(unsorted),
               PreconditionError);
}

}  // namespace
}  // namespace aspen
