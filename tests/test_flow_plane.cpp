// Flow-plane differential harness (ISSUE 10): every path the flow plane
// picks must byte-match an independent packet_walk replay under the same
// seed — healthy, under each single-link failure, and across a gray link —
// plus thread-invariance, walk-order independence against an
// admission-order reference, loop-freedom/TTL, ECMP-policy distribution
// properties, exact campaign loss accounting, and the flow_chaos golden
// trace.
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/aspen/generator.h"
#include "src/fault/chaos.h"
#include "src/obs/obs.h"
#include "src/routing/ecmp.h"
#include "src/routing/packet_walk.h"
#include "src/routing/updown.h"
#include "src/topo/link_state.h"
#include "src/topo/topology.h"
#include "src/traffic/flow_plane.h"
#include "src/traffic/patterns.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "tests/trace_golden.h"

namespace aspen {
namespace {

Topology fig3_topology(const char* ftv) {
  return Topology::build(
      generate_tree(4, 6, FaultToleranceVector::parse(ftv)));
}

Topology small_topology() {
  return Topology::build(
      generate_tree(3, 4, FaultToleranceVector::parse("<1,0>")));
}

/// The walker status a terminal flow fate corresponds to.
WalkStatus expected_status(FlowFate fate) {
  switch (fate) {
    case FlowFate::kDelivered: return WalkStatus::kDelivered;
    case FlowFate::kBlackholed: return WalkStatus::kDropped;
    case FlowFate::kLooped: return WalkStatus::kTtlExceeded;
    case FlowFate::kNoRoute: return WalkStatus::kNoRoute;
    case FlowFate::kInflight: break;
  }
  ADD_FAILURE() << "non-terminal fate";
  return WalkStatus::kNoRoute;
}

/// Walks every admitted flow through both walkers and requires identical
/// node paths and identical outcome classes.
void expect_differential_match(const Topology& topo, const FlowPlane& plane,
                               const RoutingState& state,
                               const LinkStateOverlay& overlay,
                               bool apply_health, std::uint64_t health_seed,
                               const char* context) {
  const ecmp::EcmpReadView view(state);
  const TableRouter router(state);
  std::vector<NodeId> plane_path;
  for (std::uint64_t i = 0; i < plane.admitted(); ++i) {
    const Flow flow = plane.flow(i);
    const FlowPlane::Attempt attempt =
        plane.walk_one(i, view, overlay, 0.0, &plane_path);

    WalkOptions walk_options;
    walk_options.flow_seed = plane.flow_seed(i);
    walk_options.apply_health = apply_health;
    walk_options.health_seed = health_seed;
    const WalkResult walk =
        walk_packet(topo, router, overlay, flow.src, flow.dst, walk_options);

    ASSERT_EQ(expected_status(attempt.outcome), walk.status)
        << context << " flow " << i << " (" << flow.src.value() << " -> "
        << flow.dst.value() << ")";
    ASSERT_EQ(plane_path, walk.path)
        << context << " flow " << i << " path diverged";
    ASSERT_EQ(attempt.hops, walk.hops) << context << " flow " << i;
  }
}

// ---- differential: flow plane == packet walker, node for node ----------

TEST(FlowPlaneDifferential, MatchesPacketWalkerHealthy) {
  for (const char* ftv : {"<0,2,0>", "<2,0,0>", "<0,2,2>"}) {
    const Topology topo = fig3_topology(ftv);
    const RoutingState state = compute_updown_routes(topo);
    const LinkStateOverlay overlay(topo);

    FlowPlaneOptions options;
    options.base_seed = 42;
    FlowPlane plane(topo, options);
    Rng rng(7);
    std::vector<Flow> flows = permutation_traffic(topo, rng);
    plane.admit(flows);
    plane.admit_uniform(128);

    expect_differential_match(topo, plane, state, overlay,
                              /*apply_health=*/false, 0, ftv);
  }
}

TEST(FlowPlaneDifferential, MatchesPacketWalkerUnderEachSingleLinkFailure) {
  const Topology topo = fig3_topology("<0,2,0>");
  const RoutingState state = compute_updown_routes(topo);

  FlowPlaneOptions options;
  options.base_seed = 9;
  FlowPlane plane(topo, options);
  plane.admit_uniform(48);

  // Stale-tables scenario: the fabric loses one link, the tables have not
  // heard — both walkers must rotate (or drop) identically.
  for (std::uint64_t l = 0; l < topo.num_links(); ++l) {
    LinkStateOverlay overlay(topo);
    overlay.fail(LinkId{static_cast<std::uint32_t>(l)});
    expect_differential_match(topo, plane, state, overlay,
                              /*apply_health=*/false, 0,
                              "single-link failure");
  }
}

TEST(FlowPlaneDifferential, MatchesPacketWalkerAcrossGrayLink) {
  const Topology topo = fig3_topology("<0,2,0>");
  const RoutingState state = compute_updown_routes(topo);
  LinkStateOverlay overlay(topo);
  // Degrade a mid-fabric link: the shared gray-drop hash must give both
  // walkers the same per-flow verdict.
  const LinkId gray = topo.links_at_level(2).front();
  overlay.set_gray(gray, 0.5);

  FlowPlaneOptions options;
  options.base_seed = 11;
  options.apply_health = true;
  options.health_seed = 77;
  FlowPlane plane(topo, options);
  plane.admit_uniform(160);

  expect_differential_match(topo, plane, state, overlay,
                            /*apply_health=*/true, 77, "gray link");
}

TEST(FlowPlaneDifferential, MatchesPacketWalkerOnHostGranularityTables) {
  // Per-host rows: the destination's edge switch holds the host link, and
  // a failed host uplink empties the rows toward that host everywhere.
  const Topology topo = fig3_topology("<0,2,0>");
  FlowPlaneOptions options;
  options.base_seed = 13;
  FlowPlane plane(topo, options);
  plane.admit_uniform(160);
  const HostId victim = plane.flow(0).dst;
  std::vector<Flow> toward_victim;
  for (std::uint32_t s = 0; s < topo.num_hosts(); s += 7) {
    if (HostId{s} != victim) toward_victim.push_back(Flow{HostId{s}, victim});
  }
  plane.admit(toward_victim);

  const LinkStateOverlay intact(topo);
  expect_differential_match(
      topo, plane,
      compute_updown_routes(topo, intact, DestGranularity::kHost), intact,
      /*apply_health=*/false, 0, "host granularity, intact");

  LinkStateOverlay failed(topo);
  failed.fail(topo.host_uplink(victim).link);
  failed.fail(topo.links_at_level(2).front());
  expect_differential_match(
      topo, plane,
      compute_updown_routes(topo, failed, DestGranularity::kHost), failed,
      /*apply_health=*/false, 0,
      "host granularity, failed host uplink + L2 link");
}

// ---- thread invariance --------------------------------------------------

TEST(FlowPlaneDeterminism, ByteIdenticalFatesAcrossThreadCounts) {
  const Topology topo = fig3_topology("<0,2,0>");
  const RoutingState state = compute_updown_routes(topo);

  const auto run_at = [&](int threads) {
    FlowPlaneOptions options;
    options.base_seed = 5;
    options.threads = threads;
    options.patience = 2;
    FlowPlane plane(topo, options);
    plane.admit_uniform(4096);

    LinkStateOverlay overlay(topo);
    plane.step(state, overlay);
    overlay.fail(topo.links_at_level(2).front());
    plane.step(state, overlay);
    plane.step(state, overlay);
    overlay.recover_all();
    plane.admit_uniform(1024);
    plane.step(state, overlay);
    return plane.fate_fingerprint();
  };

  const std::uint64_t base = run_at(1);
  for (const int threads : {2, 4, 8}) {
    EXPECT_EQ(base, run_at(threads)) << threads << " threads";
  }
}

// ---- walk-order independence -------------------------------------------

/// A serial reference kept in admission order: it walks every inflight flow
/// with plane.walk_one and applies step()'s documented fold, so any flow the
/// plane's destination-ordered list drops, repeats or mis-folds shows up as
/// a per-flow or counter mismatch.
struct AdmissionOrderReference {
  std::vector<FlowFate> fate;
  std::vector<int> fails;
  std::vector<std::uint32_t> attempts;
  std::vector<std::uint64_t> path_hash;
  std::vector<std::uint16_t> hops;
  std::vector<std::uint32_t> active;  ///< inflight, in admission order
  FlowStepStats totals;

  void admit_up_to(std::uint64_t admitted) {
    for (std::uint64_t i = fate.size(); i < admitted; ++i) {
      active.push_back(static_cast<std::uint32_t>(i));
    }
    fate.resize(admitted, FlowFate::kInflight);
    fails.resize(admitted, 0);
    attempts.resize(admitted, 0);
    path_hash.resize(admitted, 0);
    hops.resize(admitted, 0);
  }

  FlowStepStats step(const FlowPlane& plane, const RoutingState& knowledge,
                     const LinkStateOverlay& actual, double at_time_ms,
                     int patience) {
    const ecmp::EcmpReadView view(knowledge);
    FlowStepStats stats;
    stats.attempted = active.size();
    std::vector<std::uint32_t> kept;
    for (const std::uint32_t f : active) {
      const FlowPlane::Attempt attempt =
          plane.walk_one(f, view, actual, at_time_ms);
      ++attempts[f];
      if (path_hash[f] != 0 && attempt.path_hash != path_hash[f]) {
        ++stats.reroutes;
      }
      path_hash[f] = attempt.path_hash;
      hops[f] = attempt.hops;
      if (attempt.outcome == FlowFate::kDelivered) {
        fate[f] = FlowFate::kDelivered;
        ++stats.delivered;
        continue;
      }
      if (++fails[f] >= patience) {
        fate[f] = attempt.outcome;
        switch (attempt.outcome) {
          case FlowFate::kBlackholed: ++stats.blackholed; break;
          case FlowFate::kLooped: ++stats.looped; break;
          case FlowFate::kNoRoute: ++stats.no_route; break;
          default: ADD_FAILURE() << "non-terminal walk outcome";
        }
        continue;
      }
      kept.push_back(f);
    }
    active = std::move(kept);
    totals.delivered += stats.delivered;
    totals.blackholed += stats.blackholed;
    totals.looped += stats.looped;
    totals.no_route += stats.no_route;
    totals.reroutes += stats.reroutes;
    return stats;
  }
};

void expect_matches_reference(const FlowPlane& plane,
                              const AdmissionOrderReference& ref,
                              const std::string& context) {
  ASSERT_EQ(ref.fate.size(), plane.admitted()) << context;
  for (std::uint64_t i = 0; i < plane.admitted(); ++i) {
    ASSERT_EQ(ref.fate[i], plane.fate(i)) << context << " flow " << i;
    ASSERT_EQ(ref.path_hash[i], plane.path_hash(i))
        << context << " flow " << i;
    ASSERT_EQ(ref.hops[i], plane.hops(i)) << context << " flow " << i;
    ASSERT_EQ(ref.attempts[i], plane.attempts(i)) << context << " flow " << i;
  }
  EXPECT_EQ(ref.active.size(), plane.inflight()) << context;
  EXPECT_EQ(ref.totals.delivered, plane.delivered()) << context;
  EXPECT_EQ(ref.totals.blackholed, plane.blackholed()) << context;
  EXPECT_EQ(ref.totals.looped, plane.looped()) << context;
  EXPECT_EQ(ref.totals.no_route, plane.no_route()) << context;
  EXPECT_EQ(ref.totals.reroutes, plane.reroutes()) << context;
}

TEST(FlowPlaneWalkOrder, MatchesAdmissionOrderReference) {
  const Topology topo = fig3_topology("<0,2,0>");
  const RoutingState stale = compute_updown_routes(topo);
  const LinkId first_cut = topo.links_at_level(2).front();
  const LinkId second_cut = topo.host_uplink(HostId{17}).link;
  // Per-host tables that know one host's uplink is down: every row toward
  // that host is empty, so flows to it fail as no_route.
  const HostId victim{5};
  LinkStateOverlay victim_down(topo);
  victim_down.fail(topo.host_uplink(victim).link);
  const RoutingState host_tables =
      compute_updown_routes(topo, victim_down, DestGranularity::kHost);
  std::vector<Flow> toward_victim;
  for (std::uint32_t s = 0; s < topo.num_hosts(); s += 9) {
    if (HostId{s} != victim) toward_victim.push_back(Flow{HostId{s}, victim});
  }

  for (const NextHopPolicy policy :
       {NextHopPolicy::kSeededHash, NextHopPolicy::kLowest,
        NextHopPolicy::kWeighted}) {
    for (const int threads : {1, 4}) {
      FlowPlaneOptions options;
      options.base_seed = 23;
      options.policy = policy;
      options.threads = threads;
      options.patience = 2;
      FlowPlane plane(topo, options);
      AdmissionOrderReference ref;
      LinkStateOverlay actual(topo);
      const std::string config = std::string(to_cstring(policy)) + ", " +
                                 std::to_string(threads) + " threads";

      const auto step_both = [&](const RoutingState& knowledge) {
        ref.admit_up_to(plane.admitted());
        const auto at = static_cast<double>(plane.epochs());
        const std::string context =
            config + ", epoch " + std::to_string(plane.epochs());
        const FlowStepStats want =
            ref.step(plane, knowledge, actual, at, options.patience);
        const FlowStepStats got = plane.step(knowledge, actual, at);
        EXPECT_EQ(want.attempted, got.attempted) << context;
        EXPECT_EQ(want.delivered, got.delivered) << context;
        EXPECT_EQ(want.lost(), got.lost()) << context;
        EXPECT_EQ(want.reroutes, got.reroutes) << context;
        expect_matches_reference(plane, ref, context);
      };
      // Each new batch is merged with the stragglers of the epoch before.
      const auto admit_batch = [&](std::uint64_t count) {
        EXPECT_GT(plane.inflight(), 0u)
            << config << ", epoch " << plane.epochs() << ": no straggler";
        plane.admit_uniform(count);
      };

      // Stale tables: the fabric loses links the tables never hear of, so
      // flows routed across them fail, wait an epoch and are merged with
      // the next batch; a flow that fails twice is blackholed.
      actual.fail(first_cut);
      plane.admit_uniform(400);
      step_both(stale);
      admit_batch(400);
      step_both(stale);
      actual.recover(first_cut);
      actual.fail(second_cut);
      admit_batch(400);
      step_both(stale);
      // The victim's uplink goes down and the tables know it.
      actual.recover(second_cut);
      actual.fail(topo.host_uplink(victim).link);
      admit_batch(400);
      plane.admit(toward_victim);
      step_both(host_tables);
      admit_batch(400);
      step_both(host_tables);
      // Everything heals: the rest delivers.
      actual.recover_all();
      step_both(stale);

      EXPECT_EQ(0u, plane.inflight()) << config;
      EXPECT_GT(plane.blackholed(), 0u) << config;
      EXPECT_GT(plane.no_route(), 0u) << config;
    }
  }
}

TEST(FlowPlaneAdmission, RejectsEndpointsOutsideTheTopology) {
  const Topology topo = small_topology();
  FlowPlane plane(topo, {});
  const auto hosts = static_cast<std::uint32_t>(topo.num_hosts());
  const Flow flows[] = {Flow{HostId{0}, HostId{1}},
                        Flow{HostId{0}, HostId{hosts}}};
  EXPECT_THROW(plane.admit(flows), PreconditionError);
  EXPECT_EQ(0u, plane.admitted());
  EXPECT_EQ(0u, plane.inflight());
}

// ---- loop freedom and TTL ----------------------------------------------

TEST(FlowPlaneLoops, ConvergedTablesAreLoopFree) {
  const Topology topo = fig3_topology("<0,2,2>");
  const RoutingState state = compute_updown_routes(topo);
  const LinkStateOverlay overlay(topo);

  FlowPlane plane(topo, {});
  Rng rng(3);
  std::vector<Flow> flows = permutation_traffic(topo, rng);
  plane.admit(flows);
  plane.step(state, overlay);

  EXPECT_EQ(plane.admitted(), plane.delivered());
  EXPECT_EQ(0u, plane.looped());
  // up*/down* paths cross at most 2·(levels − 1) switch links plus the two
  // host links.
  for (std::uint64_t i = 0; i < plane.admitted(); ++i) {
    EXPECT_LE(plane.hops(i), 2 * (4 - 1) + 2) << "flow " << i;
  }
}

TEST(FlowPlaneLoops, HandMadeLoopTripsTtlAndFateIsLooped) {
  const Topology topo = small_topology();
  RoutingState state = compute_updown_routes(topo);
  const LinkStateOverlay overlay(topo);

  // Mutate the tables into a 2-cycle for one destination: the source's
  // edge switch points up at aggregation switch X, and X points back down.
  const HostId src{0};
  const HostId dst{static_cast<std::uint32_t>(topo.num_hosts() - 1)};
  const SwitchId edge = topo.edge_switch_of(src);
  const Topology::Neighbor up = topo.up_neighbors(edge)[0];
  const SwitchId agg = topo.switch_of(up.node);
  const std::uint64_t d = state.dest_index(dst);

  RoutingTables::Entry& edge_row = state.tables.row(edge.value(), d);
  const Topology::Neighbor up_hop{up.node, up.link};
  state.tables.assign_hops(edge_row, std::span<const Topology::Neighbor>(
                                         &up_hop, 1));
  RoutingTables::Entry& agg_row = state.tables.row(agg.value(), d);
  const Topology::Neighbor down_hop{topo.node_of(edge), up.link};
  state.tables.assign_hops(agg_row, std::span<const Topology::Neighbor>(
                                        &down_hop, 1));
  state.digests.clear();  // hand-mutated state no longer matches its digests

  FlowPlaneOptions options;
  options.ttl = 16;
  options.patience = 1;
  FlowPlane plane(topo, options);
  const Flow flow{src, dst};
  plane.admit(std::span<const Flow>(&flow, 1));
  plane.step(state, overlay);

  EXPECT_EQ(FlowFate::kLooped, plane.fate(0));
  EXPECT_EQ(1u, plane.looped());
  EXPECT_EQ(16u, plane.hops(0));  // walked to the TTL, no further
  EXPECT_EQ(plane.admitted(), plane.delivered() + plane.lost() +
                                  plane.inflight());
}

// ---- 50-step campaign: exact loss accounting ----------------------------

TEST(FlowPlaneCampaign, FiftyStepAccountingIdentityExact) {
  const Topology topo = fig3_topology("<0,2,0>");
  for (const ProtocolKind kind : {ProtocolKind::kAnp, ProtocolKind::kLsp}) {
    FlowChaosOptions options;
    options.chaos.seed = 1234;
    options.chaos.num_events = 50;
    options.chaos.check_flows = 16;  // keep the campaign's own checks cheap
    options.plane.base_seed = 99;
    options.plane.patience = 2;
    options.total_flows = 10200;
    const FlowChaosReport report = run_flow_chaos(kind, topo, options);

    EXPECT_EQ(10200u, report.admitted) << to_cstring(kind);
    EXPECT_EQ(report.lost,
              report.admitted - report.delivered - report.inflight)
        << to_cstring(kind);
    EXPECT_EQ(report.lost, report.blackholed + report.looped + report.no_route)
        << to_cstring(kind);
    EXPECT_GT(report.delivered, 0u) << to_cstring(kind);
    EXPECT_GE(report.epochs, 51u) << to_cstring(kind);
    EXPECT_TRUE(report.chaos.tables_restored) << to_cstring(kind);
    EXPECT_EQ(0u, report.chaos.ground_truth_violations) << to_cstring(kind);
  }
}

// A 12-action fault/heal campaign with 12,000 flows gives every flow the
// same fate at plane threads 1, 2 and 4, for both protocols.
TEST(FlowPlaneCampaign, FateFingerprintIdenticalAcrossPlaneThreads) {
  const Topology topo = fig3_topology("<0,2,0>");
  for (const ProtocolKind kind : {ProtocolKind::kAnp, ProtocolKind::kLsp}) {
    std::uint64_t serial = 0;
    for (const int threads : {1, 2, 4}) {
      FlowChaosOptions options;
      options.chaos.seed = 7;
      options.chaos.num_events = 12;
      options.chaos.check_flows = 16;
      options.plane.base_seed = 2026;
      options.plane.threads = threads;
      options.total_flows = 12000;
      const FlowChaosReport report = run_flow_chaos(kind, topo, options);

      EXPECT_EQ(12000u, report.admitted) << to_cstring(kind);
      EXPECT_EQ(report.admitted,
                report.delivered + report.lost + report.inflight)
          << to_cstring(kind);
      if (threads == 1) serial = report.fate_fingerprint;
      EXPECT_EQ(serial, report.fate_fingerprint)
          << to_cstring(kind) << " at " << threads << " plane threads";
    }
  }
}

// ---- ECMP policy properties ---------------------------------------------

// Seeded-hash ECMP must spread flows across all equal-cost uplinks.  The
// bound is a chi-square-style statistic kept in integers: with u uplinks
// and n flows at one edge switch, Σ_j (u·c_j − n)² ≤ K·u·n  ⇔  χ² ≤ K.
// K = 16 is far above the u−1 expectation yet far below what any stuck or
// missing uplink produces (one dead choice alone contributes χ² ≈ n/u).
TEST(FlowPlanePolicy, SeededHashSpreadsAcrossEqualCostUplinks) {
  const Topology topo = small_topology();
  const RoutingState state = compute_updown_routes(topo);
  const LinkStateOverlay overlay(topo);
  const ecmp::EcmpReadView view(state);

  FlowPlaneOptions options;
  options.base_seed = 21;
  FlowPlane plane(topo, options);
  plane.admit_uniform(4000);

  // Tally the chosen ingress uplink per edge switch (flows delivered at
  // their own edge never consult the row; skip them).
  std::vector<std::vector<std::uint64_t>> uplink_counts(topo.num_switches());
  for (std::uint64_t s = 0; s < topo.num_switches(); ++s) {
    const SwitchId id{static_cast<std::uint32_t>(s)};
    if (topo.level_of(id) == 1) {
      uplink_counts[s].assign(topo.up_neighbors(id).size(), 0);
    }
  }
  std::vector<NodeId> path;
  for (std::uint64_t i = 0; i < plane.admitted(); ++i) {
    const Flow flow = plane.flow(i);
    const SwitchId edge = topo.edge_switch_of(flow.src);
    if (edge == topo.edge_switch_of(flow.dst)) continue;
    const FlowPlane::Attempt attempt =
        plane.walk_one(i, view, overlay, 0.0, &path);
    ASSERT_EQ(FlowFate::kDelivered, attempt.outcome);
    ASSERT_GE(path.size(), 3u);
    const std::span<const Topology::Neighbor> ups = topo.up_neighbors(edge);
    bool found = false;
    for (std::size_t j = 0; j < ups.size(); ++j) {
      if (ups[j].node == path[2]) {
        ++uplink_counts[edge.value()][j];
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found) << "first hop is not an uplink of the ingress edge";
  }

  for (std::uint64_t s = 0; s < topo.num_switches(); ++s) {
    const std::vector<std::uint64_t>& counts = uplink_counts[s];
    if (counts.empty()) continue;
    const std::uint64_t u = counts.size();
    std::uint64_t n = 0;
    for (const std::uint64_t c : counts) n += c;
    ASSERT_GT(n, 100u) << "edge switch " << s << " saw too few flows";
    std::uint64_t chi_scaled = 0;  // Σ (u·c − n)², all integer
    for (const std::uint64_t c : counts) {
      const std::int64_t dev =
          static_cast<std::int64_t>(u * c) - static_cast<std::int64_t>(n);
      chi_scaled += static_cast<std::uint64_t>(dev * dev);
      EXPECT_GT(c, 0u) << "uplink starved at edge switch " << s;
    }
    EXPECT_LE(chi_scaled, 16u * u * n) << "edge switch " << s;
  }
}

TEST(FlowPlanePolicy, LowestIsDeterministicRegardlessOfSeed) {
  const Topology topo = small_topology();
  const RoutingState state = compute_updown_routes(topo);
  const LinkStateOverlay overlay(topo);

  Rng rng(17);
  const std::vector<Flow> flows = uniform_random_traffic(topo, 300, rng);

  const auto run_with_seed = [&](std::uint64_t seed) {
    FlowPlaneOptions options;
    options.base_seed = seed;
    options.policy = NextHopPolicy::kLowest;
    FlowPlane plane(topo, options);
    plane.admit(flows);
    plane.step(state, overlay);
    return plane;
  };

  const FlowPlane a = run_with_seed(1);
  const FlowPlane b = run_with_seed(0xDEADBEEF);
  ASSERT_EQ(a.admitted(), b.admitted());
  for (std::uint64_t i = 0; i < a.admitted(); ++i) {
    EXPECT_EQ(a.fate(i), b.fate(i)) << "flow " << i;
    EXPECT_EQ(a.path_hash(i), b.path_hash(i)) << "flow " << i;
    EXPECT_EQ(a.hops(i), b.hops(i)) << "flow " << i;
  }
  EXPECT_EQ(a.fate_fingerprint(), b.fate_fingerprint());
}

TEST(FlowPlanePolicy, WeightedDeliversAndUsesEveryUplinkEventually) {
  const Topology topo = small_topology();
  const RoutingState state = compute_updown_routes(topo);
  const LinkStateOverlay overlay(topo);

  FlowPlaneOptions options;
  options.base_seed = 8;
  options.policy = NextHopPolicy::kWeighted;
  FlowPlane plane(topo, options);
  plane.admit_uniform(2000);
  plane.step(state, overlay);

  EXPECT_EQ(plane.admitted(), plane.delivered());
  EXPECT_EQ(0u, plane.lost());
}

TEST(FlowPlanePolicy, ParseRoundTrips) {
  for (const NextHopPolicy policy :
       {NextHopPolicy::kSeededHash, NextHopPolicy::kLowest,
        NextHopPolicy::kWeighted}) {
    NextHopPolicy parsed{};
    ASSERT_TRUE(parse_next_hop_policy(to_cstring(policy), parsed));
    EXPECT_EQ(policy, parsed);
  }
  NextHopPolicy parsed{};
  EXPECT_FALSE(parse_next_hop_policy("bogus", parsed));
}

// ---- golden trace -------------------------------------------------------

std::string flow_chaos_trace(int threads) {
  obs::ObsConfig config;
  config.trace = true;
  config.trace_capacity = 4096;
  obs::ScopedObs scoped(config);

  const Topology topo = fig3_topology("<0,2,0>");
  for (const ProtocolKind kind : {ProtocolKind::kAnp, ProtocolKind::kLsp}) {
    FlowChaosOptions options;
    options.chaos.seed = 31;
    options.chaos.num_events = 1;  // single fault (plus its unwind)
    options.chaos.check_flows = 8;
    options.plane.base_seed = 13;
    options.plane.threads = threads;
    options.total_flows = 96;
    const FlowChaosReport report = run_flow_chaos(kind, topo, options);
    EXPECT_EQ(report.admitted,
              report.delivered + report.lost + report.inflight);
  }
  return obs::tracer().to_jsonl();
}

TEST(FlowPlaneGolden, FlowChaosTraceMatchesGolden) {
  EXPECT_TRUE(golden::matches_golden("flow_chaos.jsonl",
                                     flow_chaos_trace(/*threads=*/1)));
}

TEST(FlowPlaneGolden, FlowChaosTraceByteIdenticalAcrossThreadCounts) {
  const std::string base = flow_chaos_trace(1);
  for (const int threads : {2, 4}) {
    EXPECT_EQ(base, flow_chaos_trace(threads)) << threads << " threads";
  }
}

}  // namespace
}  // namespace aspen

// Custom main: strip `--regen-goldens` before gtest parses the command
// line, so `./test_flow_plane --regen-goldens` refreshes tests/golden/.
int main(int argc, char** argv) {
  std::vector<char*> kept;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--regen-goldens") == 0) {
      aspen::golden::regen_flag() = true;
      continue;
    }
    kept.push_back(argv[i]);
  }
  int kept_argc = static_cast<int>(kept.size());
  kept.push_back(nullptr);
  ::testing::InitGoogleTest(&kept_argc, kept.data());
  return RUN_ALL_TESTS();
}
