// Tests for the unreliable control plane end-to-end: lossy ANP/LSP runs,
// switch-crash injection, compound timed faults, and chaos campaigns.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/aspen/generator.h"
#include "src/fault/chaos.h"
#include "src/fault/seed.h"
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

// ---- Fault plane ----------------------------------------------------------

/// Every link incident to `s`, in the order a crash takes them.
std::vector<LinkId> incident_links(const Topology& topo, SwitchId s) {
  std::vector<LinkId> links;
  for (const Topology::Neighbor& nb : topo.up_neighbors(s)) {
    links.push_back(nb.link);
  }
  for (const Topology::Neighbor& nb : topo.down_neighbors(s)) {
    links.push_back(nb.link);
  }
  return links;
}

TEST(FaultPlane, EventsAreIdempotentAndReportWhatFlipped) {
  const Topology topo = make_tree({0, 1, 0});
  FaultPlane plane(topo);
  const LinkId link = topo.links_at_level(2)[0];
  const SwitchId upper = topo.switch_of(topo.link(link).upper);

  FaultPlane::Flips flips = plane.apply(TimedFault::link_fail(link));
  EXPECT_EQ(flips.links, std::vector<LinkId>{link});
  EXPECT_FALSE(flips.switch_flipped);
  EXPECT_TRUE(plane.apply(TimedFault::link_fail(link)).links.empty());

  // A crash takes every incident link that is still up.
  std::vector<LinkId> taken = incident_links(topo, upper);
  std::erase(taken, link);
  flips = plane.apply(TimedFault::switch_fail(upper));
  EXPECT_TRUE(flips.switch_flipped);
  EXPECT_EQ(flips.links, taken);
  flips = plane.apply(TimedFault::switch_fail(upper));
  EXPECT_FALSE(flips.switch_flipped);
  EXPECT_TRUE(flips.links.empty());

  // A link recovering while an endpoint is down is owed to that endpoint,
  // and its revival brings back everything it owes.
  EXPECT_TRUE(plane.apply(TimedFault::link_recover(link)).links.empty());
  EXPECT_FALSE(plane.overlay().is_up(link));
  EXPECT_TRUE(plane.audit().ok()) << plane.audit().to_string();
  flips = plane.apply(TimedFault::switch_recover(upper));
  EXPECT_TRUE(flips.switch_flipped);
  taken.push_back(link);
  EXPECT_EQ(flips.links, taken);
  EXPECT_EQ(plane.overlay().num_failed(), 0u);
  EXPECT_TRUE(plane.apply(TimedFault::switch_recover(upper)).links.empty());
  EXPECT_TRUE(plane.audit().ok()) << plane.audit().to_string();
}

TEST(FaultPlane, CustodyMovesToTheEndpointStillDown) {
  const Topology topo = make_tree({0, 1, 0});
  FaultPlane plane(topo);
  const LinkId link = topo.links_at_level(2)[0];
  const SwitchId upper = topo.switch_of(topo.link(link).upper);
  const SwitchId lower = topo.switch_of(topo.link(link).lower);

  (void)plane.apply(TimedFault::switch_fail(upper));
  (void)plane.apply(TimedFault::switch_fail(lower));
  // Reviving one endpoint leaves the shared link down, owed to the other.
  const FaultPlane::Flips first =
      plane.apply(TimedFault::switch_recover(upper));
  EXPECT_EQ(std::ranges::count(first.links, link), 0);
  EXPECT_FALSE(plane.overlay().is_up(link));
  EXPECT_TRUE(plane.audit().ok()) << plane.audit().to_string();

  const FaultPlane::Flips second =
      plane.apply(TimedFault::switch_recover(lower));
  EXPECT_EQ(std::ranges::count(second.links, link), 1);
  EXPECT_EQ(plane.overlay().num_failed(), 0u);
  EXPECT_TRUE(plane.audit().ok()) << plane.audit().to_string();
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

// ---- Restoration on every seed ---------------------------------------------

/// The campaign `aspen chaos 4 4 "<0,1,0>" <protocol> 40 <drop> <seed>` runs:
/// giving a drop rate turns on 0.5 ms jitter, duplicates at drop/4 and, for
/// a positive rate, the reliable transport.
ChaosOptions cli_campaign(bool notify_children, double drop,
                          std::uint64_t seed) {
  ChaosOptions options;
  options.anp.notify_children = notify_children;
  options.num_events = 40;
  options.seed = seed;
  options.delays.channel.drop_rate = drop;
  options.delays.channel.duplicate_rate = drop / 4.0;
  options.delays.channel.jitter_ms = 0.5;
  options.delays.channel.reliable = drop > 0.0;
  options.delays.channel.seed =
      fault::derive_stream_seed(seed, fault::kStreamChannel);
  return options;
}

struct CampaignCase {
  const char* name;
  ProtocolKind kind;
  bool notify_children;  ///< anp+
  double drop;
  std::uint64_t first_seed;
  std::uint64_t last_seed;
};

// Names the ctest case by `name` alone: the default byte dump would include
// the name pointer, which changes from run to run.
void PrintTo(const CampaignCase& c, std::ostream* os) { *os << c.name; }

/// Runs the case's seeds; returns the failures as "seed N: why" lines.  A
/// run whose transport gave up may leave tables stale — that is an honest
/// outcome, so such seeds are only counted and named in `gave_up`.
std::string failing_seeds(const CampaignCase& c, std::string& gave_up) {
  const Topology topo = make_tree({0, 1, 0});
  std::ostringstream failures;
  std::ostringstream abandoned;
  for (std::uint64_t seed = c.first_seed; seed <= c.last_seed; ++seed) {
    const ChaosOutcome outcome = run_chaos_campaign(
        c.kind, topo, cli_campaign(c.notify_children, c.drop, seed));
    std::string why;
    if (!outcome.all_quiesced) why += " unquiesced";
    if (outcome.ground_truth_violations != 0) why += " ground-truth";
    if (outcome.audit_violations != 0) why += " audit";
    if (!outcome.tables_restored) {
      if (outcome.gave_up > 0) {
        abandoned << " " << seed;
      } else {
        why += " tables-not-restored";
      }
    }
    if (!why.empty()) failures << "seed " << seed << ":" << why << "\n";
  }
  gave_up = abandoned.str();
  return failures.str();
}

class ChaosRestoration : public ::testing::TestWithParam<CampaignCase> {};

TEST_P(ChaosRestoration, EverySeedRestoresTables) {
  std::string gave_up;
  const std::string failures = failing_seeds(GetParam(), gave_up);
  EXPECT_EQ(failures, "");
  if (!gave_up.empty()) {
    std::printf("[  NOTE    ] give-up seeds left unrestored:%s\n",
                gave_up.c_str());
  }
}

// Every protocol, at the CLI's loss settings, on seeds 1-200.
INSTANTIATE_TEST_SUITE_P(
    Sweep, ChaosRestoration,
    ::testing::Values(
        CampaignCase{"anp_loss0", ProtocolKind::kAnp, false, 0.0, 1, 200},
        CampaignCase{"anp_loss5", ProtocolKind::kAnp, false, 0.05, 1, 200},
        CampaignCase{"anp_loss20", ProtocolKind::kAnp, false, 0.2, 1, 200},
        CampaignCase{"anp_plus_loss0", ProtocolKind::kAnp, true, 0.0, 1, 200},
        CampaignCase{"anp_plus_loss5", ProtocolKind::kAnp, true, 0.05, 1,
                     200},
        CampaignCase{"anp_plus_loss20", ProtocolKind::kAnp, true, 0.2, 1,
                     200},
        CampaignCase{"lsp_loss0", ProtocolKind::kLsp, false, 0.0, 1, 200},
        CampaignCase{"lsp_loss5", ProtocolKind::kLsp, false, 0.05, 1, 200},
        CampaignCase{"lsp_loss20", ProtocolKind::kLsp, false, 0.2, 1, 200}),
    [](const auto& param_info) {
      return std::string(param_info.param.name);
    });

// Seeds on which ANP applied a resync snapshot after a newer notice from
// the same sender, once the jittered channel swapped them, and so lost an
// ECMP member across a switch crash and revival (docs/CHAOS.md).
INSTANTIATE_TEST_SUITE_P(
    StaleNotice, ChaosRestoration,
    ::testing::Values(
        CampaignCase{"anp_plus_seed6", ProtocolKind::kAnp, true, 0.0, 6, 6},
        CampaignCase{"anp_plus_seed12", ProtocolKind::kAnp, true, 0.0, 12,
                     12},
        CampaignCase{"anp_plus_seed16", ProtocolKind::kAnp, true, 0.0, 16,
                     16},
        CampaignCase{"anp_plus_seed28", ProtocolKind::kAnp, true, 0.0, 28,
                     28},
        CampaignCase{"anp_plus_seed29", ProtocolKind::kAnp, true, 0.0, 29,
                     29},
        CampaignCase{"anp_seed14", ProtocolKind::kAnp, false, 0.0, 14, 14}),
    [](const auto& param_info) {
      return std::string(param_info.param.name);
    });

TEST(ChaosCampaign, UnrestoredVerdictNamesTheDifferingRows) {
  const Topology topo = make_tree({0, 1, 0});
  // At 95% drop the transport gives up and tables stay stale.
  fault::ChaosCampaign campaign(ProtocolKind::kAnp, topo,
                                cli_campaign(true, 0.95, 3));
  const RoutingState initial = campaign.protocol().tables();
  while (campaign.advance()) {
  }
  campaign.finish();
  const ChaosOutcome& outcome = campaign.outcome();
  ASSERT_FALSE(outcome.tables_restored);
  ASSERT_GT(outcome.gave_up, 0u);

  const RoutingTables& before = initial.tables;
  const RoutingTables& after = campaign.protocol().tables().tables;
  std::vector<UnrestoredRow> expected;
  for (std::uint64_t s = 0; s < before.size(); ++s) {
    for (std::uint64_t d = 0; d < before.num_dests(); ++d) {
      const RoutingTables::Entry& a = before.row(s, d);
      const RoutingTables::Entry& b = after.row(s, d);
      if (a.cost == b.cost &&
          std::ranges::equal(before.hops(a), after.hops(b))) {
        continue;
      }
      if (expected.size() < ChaosOutcome::kMaxUnrestoredRows) {
        const auto ha = before.hops(a);
        const auto hb = after.hops(b);
        expected.push_back({SwitchId{static_cast<std::uint32_t>(s)}, d,
                            a.cost, b.cost, {ha.begin(), ha.end()},
                            {hb.begin(), hb.end()}});
      }
    }
  }
  ASSERT_FALSE(expected.empty());
  ASSERT_EQ(outcome.unrestored_rows.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const UnrestoredRow& got = outcome.unrestored_rows[i];
    EXPECT_EQ(got.sw, expected[i].sw);
    EXPECT_EQ(got.dest, expected[i].dest);
    EXPECT_EQ(got.before_cost, expected[i].before_cost);
    EXPECT_EQ(got.after_cost, expected[i].after_cost);
    EXPECT_EQ(got.before_hops, expected[i].before_hops);
    EXPECT_EQ(got.after_hops, expected[i].after_hops);
  }

  // A restored run names no rows.
  const ChaosOutcome restored =
      run_chaos_campaign(ProtocolKind::kAnp, topo, cli_campaign(true, 0.0, 3));
  ASSERT_TRUE(restored.tables_restored);
  EXPECT_TRUE(restored.unrestored_rows.empty());
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
