// Tests for the parallel + incremental up*/down* routing engine: byte
// identity across thread counts, incremental-equals-full after arbitrary
// fault/heal schedules, and the paranoid drift auditor.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "src/aspen/generator.h"
#include "src/routing/audit.h"
#include "src/routing/updown.h"
#include "src/topo/link_state.h"
#include "src/util/rng.h"

namespace aspen {
namespace {

/// Full equality including the digests every engine-produced state carries.
void expect_identical(const RoutingState& a, const RoutingState& b) {
  ASSERT_EQ(a.tables.size(), b.tables.size());
  EXPECT_EQ(a.tables, b.tables);
  EXPECT_EQ(a.digests, b.digests);
}

/// The paper's Fig. 3 shape: 4-level, 6-port trees across the FTV space
/// (k=6 admits per-level fault tolerance 0 or 2).  Invalid combinations
/// are skipped; the guard asserts the sweep is not vacuous.
std::vector<Topology> fig3_trees() {
  std::vector<Topology> trees;
  for (const auto& ftv : std::vector<std::vector<int>>{
           {0, 0, 0}, {0, 2, 0}, {2, 0, 0}, {0, 2, 2}, {2, 2, 0}}) {
    const std::optional<TreeParams> params =
        try_generate_tree(4, 6, FaultToleranceVector(ftv));
    if (params) trees.push_back(Topology::build(*params));
  }
  return trees;
}

TEST(RoutingParallel, ByteIdenticalAcrossThreadCountsOnFig3Trees) {
  const std::vector<Topology> trees = fig3_trees();
  ASSERT_GE(trees.size(), 3u);
  for (const Topology& topo : trees) {
    SCOPED_TRACE(topo.describe());
    const LinkStateOverlay overlay(topo);
    for (const DestGranularity g :
         {DestGranularity::kEdge, DestGranularity::kHost}) {
      const RoutingState serial = compute_updown_routes(topo, overlay, g, 1);
      for (const int threads : {2, 8}) {
        expect_identical(compute_updown_routes(topo, overlay, g, threads),
                         serial);
      }
    }
  }
}

TEST(RoutingParallel, ByteIdenticalAcrossThreadCountsUnderFailures) {
  const Topology topo = Topology::build(fat_tree(3, 6));
  LinkStateOverlay overlay(topo);
  // One casualty per level, host links included.
  for (Level level = 1; level <= topo.levels(); ++level) {
    overlay.fail(topo.links_at_level(level)[0]);
  }
  for (const DestGranularity g :
       {DestGranularity::kEdge, DestGranularity::kHost}) {
    const RoutingState serial = compute_updown_routes(topo, overlay, g, 1);
    for (const int threads : {2, 8}) {
      expect_identical(compute_updown_routes(topo, overlay, g, threads),
                       serial);
    }
  }
}

/// A seeded fault/heal schedule over every link of a tree, host links
/// included: each step recovers a downed link or fails a live one.
class FlipSchedule {
 public:
  FlipSchedule(const Topology& topo, std::uint64_t seed) : rng_(seed) {
    for (Level level = 1; level <= topo.levels(); ++level) {
      for (const LinkId link : topo.links_at_level(level)) {
        all_links_.push_back(link);
      }
    }
  }

  /// Applies the next step to `overlay` and returns the flipped link.
  LinkId step(LinkStateOverlay& overlay) {
    LinkId flipped = LinkId::invalid();
    if (!down_.empty() && rng_.chance(0.4)) {
      const std::size_t at = rng_.index(down_.size());
      flipped = down_[at];
      down_.erase(down_.begin() + static_cast<std::ptrdiff_t>(at));
      overlay.recover(flipped);
    } else {
      // Draw until a live link comes up; the schedule never downs more
      // than a fraction of the fabric, so this terminates fast.
      do {
        flipped = all_links_[rng_.index(all_links_.size())];
      } while (!overlay.is_up(flipped));
      overlay.fail(flipped);
      down_.push_back(flipped);
    }
    return flipped;
  }

 private:
  Rng rng_;
  std::vector<LinkId> all_links_;
  std::vector<LinkId> down_;
};

/// Drives a seeded 50-step fault/heal schedule, patching one maintained
/// state incrementally and recomputing another from scratch at every step.
void run_schedule(const Topology& topo, DestGranularity granularity,
                  std::uint64_t seed) {
  LinkStateOverlay overlay(topo);
  RoutingState state = compute_updown_routes(topo, overlay, granularity, 1);
  FlipSchedule schedule(topo, seed);
  for (int step = 0; step < 50; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    const LinkId changed[] = {schedule.step(overlay)};
    (void)recompute_updown_routes(topo, overlay, state, changed, 1);
    const RoutingState fresh =
        compute_updown_routes(topo, overlay, granularity, 1);
    expect_identical(state, fresh);
  }
}

TEST(RoutingIncremental, MatchesFullAfterEveryScheduleStepEdge) {
  run_schedule(
      Topology::build(generate_tree(4, 6, FaultToleranceVector{0, 2, 0})),
      DestGranularity::kEdge, 42);
}

TEST(RoutingIncremental, MatchesFullAfterEveryScheduleStepHost) {
  run_schedule(Topology::build(fat_tree(3, 6)), DestGranularity::kHost, 42);
}

TEST(RoutingIncremental, MultiLinkBatchAndThreadIndependence) {
  const Topology topo = Topology::build(fat_tree(4, 6));
  LinkStateOverlay overlay(topo);
  const RoutingState before = compute_updown_routes(topo, overlay);

  // Fail a batch spanning every inter-switch level, plus list one link that
  // did not change (the contract allows unchanged listed links).
  std::vector<LinkId> changed;
  for (Level level = 2; level <= topo.levels(); ++level) {
    const auto& links = topo.links_at_level(level);
    changed.push_back(links[0]);
    changed.push_back(links[links.size() / 2]);
  }
  for (const LinkId link : changed) overlay.fail(link);
  changed.push_back(topo.links_at_level(2).back());  // unchanged, still up

  RoutingState serial_patch = before;
  (void)recompute_updown_routes(topo, overlay, serial_patch, changed, 1);
  RoutingState parallel_patch = before;
  (void)recompute_updown_routes(topo, overlay, parallel_patch, changed, 8);

  const RoutingState fresh = compute_updown_routes(topo, overlay);
  expect_identical(serial_patch, fresh);
  expect_identical(parallel_patch, fresh);
}

TEST(RoutingIncremental, RecomputeStatsAccountForEveryRow) {
  const Topology topo = Topology::build(fat_tree(4, 6));
  LinkStateOverlay overlay(topo);
  RoutingState state = compute_updown_routes(topo, overlay);
  const LinkId link = topo.links_at_level(topo.levels())[0];
  overlay.fail(link);
  const LinkId changed[] = {link};
  const RecomputeStats stats =
      recompute_updown_routes(topo, overlay, state, changed, 1);
  EXPECT_EQ(stats.total_dests, topo.params().S);
  EXPECT_GT(stats.full_rows, 0u);
  // A single top-level link dirties only the subtree below it; most rows
  // must survive untouched or the incremental engine is not incremental.
  EXPECT_GT(stats.untouched_rows(), stats.full_rows);
  EXPECT_EQ(stats.full_rows + stats.untouched_rows(), stats.total_dests);

  // The report names every row the call may have rewritten: all rows of
  // the rewritten destinations and all rows of the patched switches.  Any
  // other row must come through the call unchanged.
  std::uint64_t escalated = 0;
  std::uint64_t patched = 0;
  for (const DestGranularity g :
       {DestGranularity::kEdge, DestGranularity::kHost}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message()
                   << "host granularity " << (g == DestGranularity::kHost)
                   << " threads " << threads);
      LinkStateOverlay live(topo);
      RoutingState maintained = compute_updown_routes(topo, live, g, threads);
      const auto check = [&](std::span<const LinkId> flipped) {
        const RoutingState prior = maintained;
        const RecomputeStats report = recompute_updown_routes(
            topo, live, maintained, flipped, threads);
        const std::vector<char>& rewritten = report.rewritten_dests;
        ASSERT_TRUE(rewritten.empty() ||
                    rewritten.size() == report.total_dests);
        EXPECT_EQ(static_cast<std::uint64_t>(std::ranges::count(rewritten, 1)),
                  report.full_rows);
        std::vector<char> is_patched(topo.num_switches(), 0);
        for (const SwitchId v : report.patched) is_patched[v.value()] = 1;
        std::uint64_t stray = 0;
        for (std::uint64_t d = 0; d < maintained.num_dests(); ++d) {
          if (!rewritten.empty() && rewritten[d]) continue;
          for (std::uint64_t s = 0; s < topo.num_switches(); ++s) {
            if (is_patched[s]) continue;
            if (!RoutingTables::rows_equal(
                    prior.tables, prior.tables.row(s, d), maintained.tables,
                    maintained.tables.row(s, d))) {
              ++stray;
            }
          }
        }
        EXPECT_EQ(stray, 0u) << "rows rewritten outside the report";
        escalated += report.escalated_rows;
        patched += report.patched.size();
      };
      FlipSchedule schedule(topo, 7);
      for (int step = 0; step < 40; ++step) {
        SCOPED_TRACE(testing::Message() << "step " << step);
        const LinkId flipped[] = {schedule.step(live)};
        check(flipped);
      }
      // Cutting every uplink of one L2 switch changes its cost toward every
      // destination outside its subtree, escalating those rows.
      std::vector<LinkId> strand;
      for (const Topology::Neighbor& nb :
           topo.up_neighbors(topo.switch_at(2, 0))) {
        if (live.fail(nb.link)) strand.push_back(nb.link);
      }
      check(strand);
    }
  }
  EXPECT_GT(escalated, 0u);
  EXPECT_GT(patched, 0u);
}

TEST(RoutingAudit, AuditIncrementalCleanOnMaintainedState) {
  const Topology topo = Topology::build(fat_tree(3, 6));
  LinkStateOverlay overlay(topo);
  RoutingState state = compute_updown_routes(topo, overlay);
  const LinkId link = topo.links_at_level(2)[0];
  overlay.fail(link);
  const LinkId changed[] = {link};
  (void)recompute_updown_routes(topo, overlay, state, changed, 1);
  const AuditReport report =
      routing::audit_incremental(topo, overlay, state);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(RoutingAudit, AuditIncrementalFlagsCorruptedEntry) {
  const Topology topo = Topology::build(fat_tree(3, 6));
  const LinkStateOverlay overlay(topo);
  RoutingState state = compute_updown_routes(topo, overlay);
  // Corrupt one entry's cost without touching its digest: both the row
  // divergence and (digest now stale) must surface as drift.
  state.tables.row(topo.switch_at(2, 0).value(), 3).cost += 1;
  const AuditReport report =
      routing::audit_incremental(topo, overlay, state);
  EXPECT_TRUE(report.has(AuditCode::kIncrementalDrift)) << report.to_string();
}

TEST(RoutingAudit, AuditIncrementalFlagsStaleDigest) {
  const Topology topo = Topology::build(fat_tree(3, 6));
  const LinkStateOverlay overlay(topo);
  RoutingState state = compute_updown_routes(topo, overlay);
  ASSERT_TRUE(state.has_digests());
  // Tables stay byte-identical to a fresh computation; only the digest is
  // wrong.  The auditor must still notice.
  state.digests[1] ^= 0xDEADBEEFull;
  const AuditReport report =
      routing::audit_incremental(topo, overlay, state);
  EXPECT_TRUE(report.has(AuditCode::kIncrementalDrift)) << report.to_string();
}

TEST(RoutingDigests, ShortCircuitAgreesWithDeepCompare) {
  const Topology topo = Topology::build(fat_tree(3, 6));
  LinkStateOverlay overlay(topo);
  const RoutingState before = compute_updown_routes(topo, overlay);
  overlay.fail(topo.links_at_level(2)[0]);
  const RoutingState after = compute_updown_routes(topo, overlay);

  std::uint64_t deep = 0;
  for (std::size_t s = 0; s < before.tables.size(); ++s) {
    if (!RoutingTables::switch_equal(before.tables, after.tables, s)) ++deep;
  }
  EXPECT_GT(deep, 0u);
  EXPECT_EQ(switches_with_changed_tables(before, after), deep);

  // Same answer when one side carries no digests (hand-built states).
  RoutingState stripped = after;
  stripped.digests.clear();
  EXPECT_EQ(switches_with_changed_tables(before, stripped), deep);

  EXPECT_FALSE(tables_match_by_digest(before, after));
  EXPECT_TRUE(tables_match_by_digest(before, before));
}

}  // namespace
}  // namespace aspen
