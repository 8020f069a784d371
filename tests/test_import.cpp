// Tests for custom-wiring import — including the Fig. 6(c) disconnected
// striping that only an explicit link list can express.
#include <gtest/gtest.h>

#include "src/aspen/generator.h"
#include "src/routing/reachability.h"
#include "src/routing/updown.h"
#include "src/topo/export.h"
#include "src/topo/import.h"
#include "src/topo/validate.h"
#include "src/util/status.h"

namespace aspen {
namespace {

std::vector<LinkSpec> links_of(const Topology& topo) {
  return parse_links_csv(to_csv(topo));
}

TEST(Import, CsvRoundTripReproducesTheGraph) {
  const TreeParams params = fat_tree(3, 4);
  const Topology original = Topology::build(params);
  const Topology imported =
      import_topology_csv(params, to_csv(original));

  ASSERT_EQ(imported.num_links(), original.num_links());
  for (std::uint32_t id = 0; id < original.num_links(); ++id) {
    EXPECT_EQ(imported.link(LinkId{id}), original.link(LinkId{id}));
  }
  EXPECT_TRUE(validate_topology(imported).all_ok());
}

TEST(Import, RoundTripOfAspenTree) {
  const TreeParams params = generate_tree(4, 4, FaultToleranceVector{1, 0, 0});
  const Topology original = Topology::build(params);
  const Topology imported = import_topology_csv(params, to_csv(original));
  const ValidationReport report = validate_topology(imported);
  EXPECT_TRUE(report.all_ok());
  // Routing works identically.
  const RoutingState routes = compute_updown_routes(imported);
  const TableRouter router(routes);
  const LinkStateOverlay intact(imported);
  EXPECT_EQ(measure_all_pairs(imported, router, intact).undelivered(), 0u);
}

TEST(Import, RejectsWrongLinkCount) {
  const TreeParams params = fat_tree(3, 4);
  auto links = links_of(Topology::build(params));
  links.pop_back();
  EXPECT_THROW((void)build_custom_topology(params, links),
               PreconditionError);
}

TEST(Import, RejectsNonAdjacentLevels) {
  const TreeParams params = fat_tree(3, 4);
  const Topology topo = Topology::build(params);
  auto links = links_of(topo);
  // Rewire an L3→L2 link to point at an L1 switch instead.
  for (LinkSpec& spec : links) {
    if (!spec.lower_is_host &&
        topo.level_of(spec.upper) == 3) {
      spec.lower = 0;  // an L1 switch
      break;
    }
  }
  EXPECT_THROW((void)build_custom_topology(params, links),
               PreconditionError);
}

TEST(Import, RejectsPortOveruse) {
  const TreeParams params = fat_tree(3, 4);
  const Topology topo = Topology::build(params);
  auto links = links_of(topo);
  // Point two different cores' links at the same agg port set: moving one
  // link's lower endpoint onto a switch that is already full.
  LinkSpec* first = nullptr;
  for (LinkSpec& spec : links) {
    if (spec.lower_is_host || topo.level_of(spec.upper) != 3) continue;
    if (first == nullptr) {
      first = &spec;
    } else if (spec.lower != first->lower) {
      spec.lower = first->lower;
      break;
    }
  }
  EXPECT_THROW((void)build_custom_topology(params, links),
               PreconditionError);
}

TEST(Import, RejectsMalformedCsv) {
  EXPECT_THROW((void)parse_links_csv("not a header\n1,s0,h0,1\n"),
               PreconditionError);
  EXPECT_THROW((void)parse_links_csv("link_id,upper,lower,level\nbroken\n"),
               PreconditionError);
  EXPECT_THROW(
      (void)parse_links_csv("link_id,upper,lower,level\n0,h0,s1,1\n"),
      PreconditionError);
}

// Rewires a 3-level fat tree into the Fig. 6(c) pattern: swap two cores'
// links so the shaded cores no longer reach every L2 pod — "the two shaded
// L3 switches do not connect to all L2 pods."
TEST(Import, Figure6cDisconnectedStripingIsCaught) {
  const TreeParams params = fat_tree(3, 4);
  const Topology topo = Topology::build(params);
  auto links = links_of(topo);

  // Core c0 connects once to each of the four pods; core c1 likewise.
  // Give c0 two links into pod 0 (members 0 and 1) and c1 none, by swapping
  // the lower endpoints of c0→pod0 and c1→pod0 links' *pod* assignment:
  // concretely, point c0's pod-1 link at pod 0's other member, and c1's
  // pod-0 link at pod 1's other member.
  const SwitchId c0 = topo.switch_at(3, 0);
  const SwitchId c1 = topo.switch_at(3, 1);
  const auto member = [&](std::uint64_t pod, std::uint64_t m) {
    return static_cast<std::uint32_t>(topo.switch_at(2, pod * 2 + m).value());
  };
  LinkSpec* c0_pod1 = nullptr;
  LinkSpec* c1_pod0 = nullptr;
  for (LinkSpec& spec : links) {
    if (spec.lower_is_host) continue;
    if (spec.upper == c0 && spec.lower / 2 != 0 &&
        topo.pod_of(SwitchId{spec.lower}) == PodId{1}) {
      c0_pod1 = &spec;
    }
    if (spec.upper == c1 && topo.pod_of(SwitchId{spec.lower}) == PodId{0}) {
      c1_pod0 = &spec;
    }
  }
  ASSERT_NE(c0_pod1, nullptr);
  ASSERT_NE(c1_pod0, nullptr);
  // Swap pod targets while keeping each agg's port count intact: c0's
  // pod-1 link (member 0) moves to pod 0's member 1, and c1's pod-0 link
  // (member 1) moves to pod 1's member 0.
  c0_pod1->lower = member(0, 1);
  c1_pod0->lower = member(1, 0);

  const Topology rigged = build_custom_topology(params, links);
  const ValidationReport report = validate_topology(rigged);
  EXPECT_TRUE(report.ports_ok);
  EXPECT_FALSE(report.top_level_coverage);       // the §4 constraint fails
  EXPECT_FALSE(report.uniform_fault_tolerance);  // c_3 no longer uniform
  EXPECT_FALSE(report.problems.empty());

  // And the structural consequence: some flows lose all shortest paths
  // through the miswired cores — global routing still works (up*/down*
  // avoids them), but the tree no longer guarantees every root reaches
  // every pod.
  const RoutingState routes = compute_updown_routes(rigged);
  bool some_core_misses_a_pod = false;
  for (std::uint64_t c = 0; c < params.switches_at_level(3); ++c) {
    const SwitchId core = rigged.switch_at(3, c);
    for (std::uint64_t e = 0; e < params.S; ++e) {
      if (!routes.tables.row(core.value(), e).reachable() &&
          routes.tables.row(core.value(), e).cost != 0) {
        some_core_misses_a_pod = true;
      }
    }
  }
  EXPECT_TRUE(some_core_misses_a_pod);
}

TEST(Import, HostMustAttachToItsNumberingEdge) {
  const TreeParams params = fat_tree(3, 4);
  auto links = links_of(Topology::build(params));
  for (LinkSpec& spec : links) {
    if (spec.lower_is_host && spec.lower == 0) {
      spec.upper = SwitchId{1};  // host 0 belongs to edge 0
      break;
    }
  }
  EXPECT_THROW((void)build_custom_topology(params, links),
               PreconditionError);
}

}  // namespace
}  // namespace aspen
