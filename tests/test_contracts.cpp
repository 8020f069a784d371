// Tests for the contracts & invariant-audit layer: macro/policy semantics,
// and one corruption test per auditor code proving each oracle fires.
//
// The protocol/simulator APIs cannot produce most of these states — that is
// the point of the invariants — so the *AuditPeer corruption hooks plant
// them directly (see src/proto/audit.h, src/sim/audit.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/aspen/generator.h"
#include "src/proto/audit.h"
#include "src/proto/lsp.h"
#include "src/routing/audit.h"
#include "src/routing/updown.h"
#include "src/sim/audit.h"
#include "src/topo/audit.h"
#include "src/topo/striping.h"
#include "src/util/contracts.h"

namespace aspen {
namespace {

using contracts::AuditLevel;
using contracts::ScopedPolicy;
using contracts::ViolationPolicy;

Topology make_tree(std::vector<int> ftv, int k = 4, StripingConfig cfg = {}) {
  const int n = static_cast<int>(ftv.size()) + 1;
  return Topology::build(generate_tree(n, k, FaultToleranceVector(ftv)), cfg);
}

// ---- Macro & policy semantics -------------------------------------------

TEST(ContractMacros, PassingAssertIsSilent) {
  const ScopedPolicy policy(ViolationPolicy::kThrow);
  ASPEN_ASSERT(2 + 2 == 4, "arithmetic still works");
  ASPEN_INVARIANT(2 + 2 == 4, "arithmetic still works");
}

#if ASPEN_AUDIT_LEVEL >= 1
TEST(ContractMacros, FailingAssertThrowsUnderThrowPolicy) {
  const ScopedPolicy policy(ViolationPolicy::kThrow);
  const auto violate = [] { ASPEN_ASSERT(2 + 2 == 5, "deliberate"); };
  EXPECT_THROW(violate(), ContractViolation);
}

TEST(ContractMacros, CountAndLogTalliesInsteadOfThrowing) {
  const ScopedPolicy policy(ViolationPolicy::kCountAndLog);
  contracts::reset_violations();
  ASPEN_ASSERT(false, "first deliberate violation");
  ASPEN_ASSERT(false, "second deliberate violation");
  EXPECT_EQ(contracts::violation_count(), 2u);
  const std::vector<std::string> messages = contracts::recent_violations();
  ASSERT_FALSE(messages.empty());
  EXPECT_NE(messages[0].find("deliberate"), std::string::npos);
  contracts::reset_violations();
  EXPECT_EQ(contracts::violation_count(), 0u);
  EXPECT_TRUE(contracts::recent_violations().empty());
}
#endif  // ASPEN_AUDIT_LEVEL >= 1

TEST(ContractMacros, InvariantEvaluatesOnlyAtParanoidBuildLevel) {
  const ScopedPolicy policy(ViolationPolicy::kCountAndLog);
  contracts::reset_violations();
  bool evaluated = false;
  const auto probe = [&evaluated] {
    evaluated = true;
    return true;
  };
  ASPEN_INVARIANT(probe(), "probe");
  EXPECT_EQ(evaluated, ASPEN_AUDIT_LEVEL >= 2);
}

TEST(ContractMacros, UnreachableAlwaysFires) {
  // Unlike the gated macros, ASPEN_UNREACHABLE survives every audit level.
  const ScopedPolicy policy(ViolationPolicy::kThrow);
  const auto fall_off = [] { ASPEN_UNREACHABLE("fell off the switch"); };
  EXPECT_THROW(fall_off(), ContractViolation);
}

TEST(ContractPolicy, ScopedPolicyRestoresOnExit) {
  const ViolationPolicy before = contracts::policy();
  {
    const ScopedPolicy policy(ViolationPolicy::kCountAndLog);
    EXPECT_EQ(contracts::policy(), ViolationPolicy::kCountAndLog);
  }
  EXPECT_EQ(contracts::policy(), before);
}

TEST(ContractPolicy, ScopedPolicyCanRaiseAuditLevel) {
  const AuditLevel before = contracts::audit_level();
  {
    const ScopedPolicy policy(ViolationPolicy::kThrow, AuditLevel::kParanoid);
    EXPECT_EQ(contracts::audit_level(), AuditLevel::kParanoid);
  }
  // The env var may pin the ambient level; it can only have gone back down
  // to whatever it was before the scope.
  EXPECT_EQ(contracts::audit_level(), before);
}

TEST(ContractPolicy, ParseAuditLevelRoundTrips) {
  EXPECT_EQ(contracts::parse_audit_level("off"), AuditLevel::kOff);
  EXPECT_EQ(contracts::parse_audit_level("0"), AuditLevel::kOff);
  EXPECT_EQ(contracts::parse_audit_level("basic"), AuditLevel::kBasic);
  EXPECT_EQ(contracts::parse_audit_level("1"), AuditLevel::kBasic);
  EXPECT_EQ(contracts::parse_audit_level("paranoid"), AuditLevel::kParanoid);
  EXPECT_EQ(contracts::parse_audit_level("2"), AuditLevel::kParanoid);
  EXPECT_THROW((void)contracts::parse_audit_level("bogus"),
               PreconditionError);
  EXPECT_STREQ(contracts::to_cstring(AuditLevel::kOff), "off");
  EXPECT_STREQ(contracts::to_cstring(AuditLevel::kBasic), "basic");
  EXPECT_STREQ(contracts::to_cstring(AuditLevel::kParanoid), "paranoid");
}

TEST(ContractPolicy, EffectiveAuditLevelTakesTheMax) {
  EXPECT_EQ(contracts::effective_audit_level(AuditLevel::kParanoid),
            AuditLevel::kParanoid);
  EXPECT_EQ(contracts::effective_audit_level(contracts::audit_level()),
            contracts::audit_level());
}

TEST(ContractPolicy, EnforceAppliesPolicyPerFinding) {
  AuditReport report;
  {
    const ScopedPolicy policy(ViolationPolicy::kThrow);
    contracts::enforce(report, "clean");  // empty report: no-op
    report.add(AuditCode::kTableShape, "deliberately planted");
    EXPECT_THROW(contracts::enforce(report, "dirty"), ContractViolation);
  }
  {
    const ScopedPolicy policy(ViolationPolicy::kCountAndLog);
    contracts::reset_violations();
    report.add(AuditCode::kRoutingLoop, "second planted finding");
    contracts::enforce(report, "dirty");
    EXPECT_EQ(contracts::violation_count(), 2u);
    contracts::reset_violations();
  }
}

TEST(ContractPolicy, AuditReportHelpers) {
  AuditReport report;
  EXPECT_TRUE(report.ok());
  report.add(AuditCode::kTableShape, "one");
  report.add(AuditCode::kTableShape, "two");
  report.add(AuditCode::kRoutingLoop, "three");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(AuditCode::kTableShape));
  EXPECT_FALSE(report.has(AuditCode::kDeadNextHop));
  EXPECT_EQ(report.count(AuditCode::kTableShape), 2u);
  EXPECT_NE(report.to_string().find("table-shape: one"), std::string::npos);
}

// ---- topo::audit_params / audit_tree ------------------------------------

TEST(TopoAudit, CleanTreePasses) {
  const Topology topo = make_tree({1, 0});
  const AuditReport report = topo::audit_tree(topo);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(TopoAudit, Eq1ConservationFires) {
  TreeParams params = generate_tree(3, 4, FaultToleranceVector({1, 0}));
  params.p[2] += 1;  // p_2·m_2 != S
  const AuditReport report = topo::audit_params(params);
  EXPECT_TRUE(report.has(AuditCode::kEq1Conservation)) << report.to_string();
}

TEST(TopoAudit, Eq2PortBudgetFires) {
  TreeParams params = generate_tree(3, 4, FaultToleranceVector({1, 0}));
  params.r[2] += 1;  // r_2·c_2 != k/2
  const AuditReport report = topo::audit_params(params);
  EXPECT_TRUE(report.has(AuditCode::kEq2PortBudget)) << report.to_string();
}

TEST(TopoAudit, Eq3PodNestingFires) {
  TreeParams params = generate_tree(3, 4, FaultToleranceVector({1, 0}));
  // Keep Eq. 2 intact (r_3·c_3 = k) while breaking p_3·r_3 = p_2.
  params.r[3] *= 2;
  params.c[3] /= 2;
  const AuditReport report = topo::audit_params(params);
  EXPECT_FALSE(report.has(AuditCode::kEq2PortBudget)) << report.to_string();
  EXPECT_TRUE(report.has(AuditCode::kEq3PodNesting)) << report.to_string();
}

TEST(TopoAudit, DccConsistencyFires) {
  TreeParams params = generate_tree(3, 4, FaultToleranceVector({1, 0}));
  params.c[2] *= 2;  // hosts·DCC·2^(n-1) != k^n (Eq. 6)
  const AuditReport report = topo::audit_params(params);
  EXPECT_TRUE(report.has(AuditCode::kDccConsistency)) << report.to_string();
}

TEST(TopoAudit, ParallelHeavyStripingFlagged) {
  StripingConfig cfg;
  cfg.kind = StripingKind::kParallelHeavy;
  const Topology topo = make_tree({1, 0}, 4, cfg);
  const AuditReport report = topo::audit_tree(topo);
  EXPECT_TRUE(report.has(AuditCode::kAnpStriping)) << report.to_string();
}

// ---- routing::audit_tables ----------------------------------------------

struct RoutingFixture {
  Topology topo = make_tree({1, 0});
  LinkStateOverlay overlay{topo};
  RoutingState state =
      compute_updown_routes(topo, overlay, DestGranularity::kEdge);

  /// An edge switch, a far destination index, and the uplink hop the edge
  /// switch's entry for that destination starts with.
  SwitchId edge = topo.switch_at(1, 0);
  std::uint64_t far_dest = topo.params().S - 1;

  [[nodiscard]] RoutingTables::Entry& entry_at(SwitchId s,
                                               std::uint64_t dest) {
    return state.tables.row(s.value(), dest);
  }
};

TEST(RoutingAudit, CleanTablesPass) {
  RoutingFixture fx;
  const AuditReport report =
      routing::audit_tables(fx.topo, fx.state, fx.overlay);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(RoutingAudit, TableShapeFires) {
  RoutingFixture fx;
  fx.state.tables.pop_back();
  EXPECT_TRUE(routing::audit_tables(fx.topo, fx.state, fx.overlay)
                  .has(AuditCode::kTableShape));

  RoutingFixture fx2;
  fx2.state.hosts_per_edge += 1;
  EXPECT_TRUE(routing::audit_tables(fx2.topo, fx2.state, fx2.overlay)
                  .has(AuditCode::kTableShape));

  // Edge-keyed rows labeled per-host: too few destinations per switch.
  RoutingFixture fx3;
  fx3.state.granularity = DestGranularity::kHost;
  EXPECT_TRUE(routing::audit_tables(fx3.topo, fx3.state, fx3.overlay)
                  .has(AuditCode::kTableShape));
}

TEST(RoutingAudit, CostInconsistencyFires) {
  RoutingFixture fx;
  RoutingTables::Entry& entry = fx.entry_at(fx.edge, fx.far_dest);
  ASSERT_NE(entry.hop_count, 0);
  entry.cost = RoutingTables::kUnreachable;  // hops left behind
  EXPECT_TRUE(routing::audit_tables(fx.topo, fx.state, fx.overlay)
                  .has(AuditCode::kCostInconsistency));
}

TEST(RoutingAudit, NextHopLinkFires) {
  RoutingFixture fx;
  RoutingTables::Entry& entry = fx.entry_at(fx.edge, fx.far_dest);
  ASSERT_NE(entry.hop_count, 0);
  // Swap in a link that is not even incident to the edge switch.
  const NodeId self = fx.topo.node_of(fx.edge);
  for (std::uint32_t l = 0; l < fx.topo.num_links(); ++l) {
    const Topology::LinkRec rec = fx.topo.link(LinkId{l});
    if (rec.upper != self && rec.lower != self) {
      fx.state.tables.hops_mut(entry)[0].link = LinkId{l};
      break;
    }
  }
  EXPECT_TRUE(routing::audit_tables(fx.topo, fx.state, fx.overlay)
                  .has(AuditCode::kNextHopLink));
}

TEST(RoutingAudit, DeadNextHopFiresOnlyWhenChecked) {
  RoutingFixture fx;
  const RoutingTables::Entry& entry = fx.entry_at(fx.edge, fx.far_dest);
  ASSERT_NE(entry.hop_count, 0);
  fx.overlay.fail(fx.state.tables.hops(entry)[0].link);

  routing::TableAuditOptions options;
  options.check_dead_next_hops = true;
  options.check_walks = false;
  EXPECT_TRUE(routing::audit_tables(fx.topo, fx.state, fx.overlay, options)
                  .has(AuditCode::kDeadNextHop));
  // The gate chaos campaigns use for deliberately-stale tables.
  options.check_dead_next_hops = false;
  EXPECT_FALSE(routing::audit_tables(fx.topo, fx.state, fx.overlay, options)
                   .has(AuditCode::kDeadNextHop));
}

TEST(RoutingAudit, UpAfterDownFires) {
  RoutingFixture fx;
  // Point the edge switch's parent back down at the edge switch, so a walk
  // toward far_dest descends and is then forced to climb again.
  const RoutingTables::Entry& up = fx.entry_at(fx.edge, fx.far_dest);
  ASSERT_NE(up.hop_count, 0);
  const Topology::Neighbor uplink = fx.state.tables.hops(up)[0];
  const SwitchId parent = fx.topo.switch_of(uplink.node);
  RoutingTables::Entry& down = fx.entry_at(parent, fx.far_dest);
  const Topology::Neighbor back{fx.topo.node_of(fx.edge), uplink.link};
  fx.state.tables.assign_hops(down, {&back, 1});
  down.cost = 1;
  EXPECT_TRUE(routing::audit_tables(fx.topo, fx.state, fx.overlay)
                  .has(AuditCode::kUpAfterDown));
}

TEST(RoutingAudit, ForwardingToWrongHostFires) {
  RoutingFixture fx;
  // A next hop that delivers to some unrelated host is a routing-loop
  // finding: the walk can never reach the destination edge switch.
  const NodeId wrong_host = fx.topo.node_of(HostId{0});
  LinkId host_link = LinkId::invalid();
  for (std::uint32_t l = 0; l < fx.topo.num_links(); ++l) {
    if (fx.topo.link(LinkId{l}).lower == wrong_host) {
      host_link = LinkId{l};
      break;
    }
  }
  ASSERT_TRUE(host_link.valid());
  RoutingTables::Entry& entry = fx.entry_at(fx.edge, fx.far_dest);
  const Topology::Neighbor detour{wrong_host, host_link};
  fx.state.tables.assign_hops(entry, {&detour, 1});
  EXPECT_TRUE(routing::audit_tables(fx.topo, fx.state, fx.overlay)
                  .has(AuditCode::kRoutingLoop));
}

TEST(RoutingAudit, DefaultRouteGapFires) {
  RoutingFixture fx;
  RoutingTables::Entry& entry = fx.entry_at(fx.edge, fx.far_dest);
  fx.state.tables.clear_hops(entry);
  entry.cost = RoutingTables::kUnreachable;

  routing::TableAuditOptions options;
  EXPECT_FALSE(routing::audit_tables(fx.topo, fx.state, fx.overlay, options)
                   .has(AuditCode::kDefaultRouteGap));
  options.expect_full_reachability = true;
  EXPECT_TRUE(routing::audit_tables(fx.topo, fx.state, fx.overlay, options)
                  .has(AuditCode::kDefaultRouteGap));
}

// ---- proto auditors ------------------------------------------------------

TEST(ProtoAudit, ChannelConservationFires) {
  ChannelStats clean;
  clean.attempted = 10;
  clean.delivered = 9;
  clean.dropped = 2;
  clean.duplicated = 1;
  EXPECT_TRUE(proto::audit_channel(clean).ok());

  ChannelStats leaky = clean;
  leaky.delivered = 7;  // delivered + dropped != attempted + duplicated
  EXPECT_TRUE(
      proto::audit_channel(leaky).has(AuditCode::kChannelAccounting));
}

TEST(ProtoAudit, TransportCountersFire) {
  TransportStats stats;
  stats.sends = 4;
  stats.retransmits = 8;
  stats.gave_up = 1;
  EXPECT_TRUE(proto::audit_transport(stats, 8).ok());

  TransportStats impossible = stats;
  impossible.gave_up = 5;  // more abandoned than ever sent
  EXPECT_TRUE(proto::audit_transport(impossible, 8)
                  .has(AuditCode::kTransportAccounting));

  TransportStats chatty = stats;
  chatty.retransmits = 4 * 8 + 1;  // beyond the per-send retry cap
  EXPECT_TRUE(proto::audit_transport(chatty, 8)
                  .has(AuditCode::kTransportAccounting));
}

TEST(ProtoAudit, InflightConversationAtQuiescenceFires) {
  Simulator sim;
  ChannelModel channel;
  ReliableTransport transport(sim, channel);
  EXPECT_TRUE(proto::audit_transport_quiescence(transport).ok());
  transport.send(
      1.0, [] {}, [] { return false; }, [] { return false; });
  // The conversation is open until the retry loop runs to abandonment.
  EXPECT_TRUE(proto::audit_transport_quiescence(transport)
                  .has(AuditCode::kInflightAccounting));
  (void)sim.run_bounded(1'000'000);
  EXPECT_TRUE(proto::audit_transport_quiescence(transport).ok());
  EXPECT_EQ(transport.stats().gave_up, 1u);
}

/// The uplink of the first edge switch of `topo`.
LinkId first_edge_uplink(const Topology& topo) {
  const SwitchId edge = topo.switch_at(1, 0);
  for (const LinkId l : topo.links_at_level(2)) {
    if (topo.link(l).lower == topo.node_of(edge)) return l;
  }
  return LinkId::invalid();
}

TEST(ProtoAudit, CustodyInvariantsFire) {
  const Topology topo = make_tree({1, 0});
  FaultPlane plane(topo);
  EXPECT_TRUE(plane.audit().ok());
  const SwitchId edge = topo.switch_at(1, 0);
  const LinkId uplink = first_edge_uplink(topo);
  ASSERT_TRUE(uplink.valid());
  proto::FaultPlaneAuditPeer::add_custody(plane, edge, uplink);

  // Live holder and a link that is still up: both invariants violated.
  AuditReport dirty = plane.audit();
  EXPECT_TRUE(dirty.has(AuditCode::kCrashCustody)) << dirty.to_string();
  EXPECT_TRUE(dirty.has(AuditCode::kCustodyLinkUp)) << dirty.to_string();

  // Crash the holder, which takes the link down: custody becomes
  // legitimate.
  (void)plane.apply(TimedFault::switch_fail(edge));
  EXPECT_TRUE(plane.audit().ok()) << plane.audit().to_string();
}

TEST(ProtoAudit, ResyncDirectionFires) {
  const Topology topo = make_tree({1, 0});
  const Topology::LinkRec& rec = topo.link(topo.links_at_level(2)[0]);
  const SwitchId upper = topo.switch_of(rec.upper);
  const SwitchId lower = topo.switch_of(rec.lower);

  const AnpSimulation plain(topo, DelayModel{},
                            AnpOptions{.notify_children = false,
                                       .adjacency_resync = true});
  EXPECT_TRUE(proto::audit_resync_direction(plain, lower, upper).ok());
  EXPECT_TRUE(proto::audit_resync_direction(plain, upper, lower)
                  .has(AuditCode::kResyncDirection));

  // With downward notices enabled, a downward resync can be retracted.
  const AnpSimulation notifying(topo, DelayModel{},
                                AnpOptions{.notify_children = true,
                                           .adjacency_resync = true});
  EXPECT_TRUE(proto::audit_resync_direction(notifying, upper, lower).ok());
}

TEST(ProtoAudit, AnpWithdrawalLogStaleFires) {
  const Topology topo = make_tree({1, 0});
  AnpSimulation sim(topo);
  EXPECT_TRUE(sim.audit().ok());

  const LinkId link = topo.links_at_level(2)[0];
  const Topology::LinkRec& rec = topo.link(link);
  const SwitchId lower = topo.switch_of(rec.lower);
  proto::AnpAuditPeer::log_removed_by_link(
      sim, lower, link, 0, Topology::Neighbor{rec.upper, link});
  EXPECT_TRUE(
      sim.audit().has(AuditCode::kWithdrawalLogStale));
}

TEST(ProtoAudit, AnpAnnouncedLostMismatchFires) {
  const Topology topo = make_tree({1, 0});
  AnpSimulation sim(topo);
  const SwitchId edge = topo.switch_at(1, 0);
  const std::uint64_t far_dest = topo.params().S - 1;
  ASSERT_TRUE(sim.tables().tables.row(edge.value(), far_dest).reachable());
  proto::AnpAuditPeer::set_announced_lost(sim, edge, far_dest, true);
  EXPECT_TRUE(
      sim.audit().has(AuditCode::kAnnouncedLostMismatch));
  proto::AnpAuditPeer::set_announced_lost(sim, edge, far_dest, false);
  EXPECT_TRUE(sim.audit().ok());
}

// Each protocol's audit() includes its fault plane's custody audit: a
// crashed switch's custody over a link the overlay brought back up fires.
template <typename Sim>
void expect_custody_audited(const Topology& topo, Sim& sim) {
  EXPECT_TRUE(sim.audit().ok());
  const LinkId uplink = first_edge_uplink(topo);
  ASSERT_TRUE(uplink.valid());
  (void)sim.simulate_switch_failure(topo.switch_at(1, 0));
  EXPECT_TRUE(sim.audit().ok()) << sim.audit().to_string();

  sim.overlay_mut().recover(uplink);
  AuditReport report = sim.audit();
  EXPECT_FALSE(report.has(AuditCode::kCrashCustody)) << report.to_string();
  EXPECT_TRUE(report.has(AuditCode::kCustodyLinkUp)) << report.to_string();

  sim.overlay_mut().fail(uplink);
  EXPECT_TRUE(sim.audit().ok());
}

TEST(ProtoAudit, AnpCrashCustodyFires) {
  const Topology topo = make_tree({1, 0});
  AnpSimulation sim(topo);
  expect_custody_audited(topo, sim);
}

TEST(ProtoAudit, LspCrashCustodyFires) {
  const Topology topo = make_tree({1, 0});
  LspSimulation sim(topo);
  expect_custody_audited(topo, sim);
}

// ---- sim::audit_queue ----------------------------------------------------

TEST(SimAudit, CleanQueuePasses) {
  Simulator sim;
  EXPECT_TRUE(sim::audit_queue(sim).ok());
  sim.schedule(1.0, [] {});
  sim.schedule(2.0, [] {});
  EXPECT_TRUE(sim::audit_queue(sim).ok());
  (void)sim.run_bounded(10);
  EXPECT_TRUE(sim::audit_queue(sim).ok());
}

TEST(SimAudit, TimeMonotonicityFires) {
  Simulator sim;
  sim::SimAuditPeer::push_unchecked(sim, 5.0);
  EXPECT_TRUE(sim::audit_queue(sim).ok());
  sim::SimAuditPeer::set_now(sim, 10.0);  // clock passes a pending event
  EXPECT_TRUE(sim::audit_queue(sim).has(AuditCode::kTimeMonotonicity));
}

TEST(SimAudit, QueueAccountingFires) {
  Simulator sim;
  sim.schedule(1.0, [] {});
  (void)sim.run_bounded(10);
  EXPECT_TRUE(sim::audit_queue(sim).ok());
  sim::SimAuditPeer::set_events_processed(sim, 7);  // seq numbers leak
  EXPECT_TRUE(sim::audit_queue(sim).has(AuditCode::kQueueAccounting));
}

}  // namespace
}  // namespace aspen
