// Experiment X2 (extension) — the §1 availability arithmetic, end to end.
//
// First reproduces the paper's budget numbers (5 nines ≈ 5 minutes/year ≈
// 30 failures × 10 s), then applies the event-based accounting to fat/Aspen
// pairs: more links means more failures per year, but windows measured in
// tens of milliseconds instead of seconds buy the fabric several nines.
#include <cstdio>

#include "bench/paper/experiments.h"
#include "src/analysis/availability.h"
#include "src/analysis/convergence.h"
#include "src/analysis/survivability.h"
#include "src/aspen/fixed_hosts.h"
#include "src/aspen/generator.h"
#include "src/routing/delta.h"
#include "src/routing/updown.h"
#include "src/topo/topology.h"
#include "src/util/table.h"

bool aspen::bench::availability() {
  std::printf("== §1 budget arithmetic ==\n");
  std::printf("5-nines downtime budget : %.1f s/year (%.2f minutes)\n",
              downtime_budget_s(0.99999), downtime_budget_s(0.99999) / 60.0);
  std::printf(
      "failures affordable at 10 s re-convergence: %.1f  (paper: ~30)\n\n",
      affordable_failures_per_year(0.99999, 10.0));

  const double rate = 0.25;  // link failures per link per year (Gill et
                             // al. observe most links failing rarely but
                             // fleets of 10^5 links failing constantly)
  std::printf(
      "== Expected availability, fat+LSP vs fixed-host Aspen+ANP ==\n"
      "(%.2f failures/link/year; window = mean §9.1 distance at §9.2 "
      "rates)\n\n",
      rate);

  TextTable table({"pair", "links fat/aspen", "failures/yr fat/aspen",
                   "downtime fat (s/yr)", "downtime aspen (s/yr)",
                   "nines fat", "nines aspen"});
  for (const auto& [k, n] : std::vector<std::pair<int, int>>{
           {16, 3}, {64, 3}, {16, 4}, {32, 4}, {16, 5}}) {
    const TreeParams fat = fat_tree(n, k);
    const TreeParams aspen = design_fixed_host_tree(n, k, 1);
    const AvailabilityEstimate f = estimate_availability(fat, rate);
    const AvailabilityEstimate a = estimate_availability(aspen, rate);
    char label[48];
    std::snprintf(label, sizeof label, "k=%d n=%d/%d", k, n, n + 1);
    char links[48];
    std::snprintf(links, sizeof links, "%lu / %lu",
                  static_cast<unsigned long>(fat.total_links()),
                  static_cast<unsigned long>(aspen.total_links()));
    char fails[48];
    std::snprintf(fails, sizeof fails, "%.0f / %.0f", f.failures_per_year,
                  a.failures_per_year);
    table.add_row({label, links, fails,
                   format_double(f.downtime_s_per_year, 1),
                   format_double(a.downtime_s_per_year, 1),
                   format_double(f.nines, 2), format_double(a.nines, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf(
      "== Nines as a function of the FTV (n=4, k=6, fixed network size) "
      "==\n\n");
  TextTable ftv_table({"FTV", "hosts", "mean window (ms)",
                       "downtime (s/yr)", "nines"});
  for (const auto& entries : std::vector<std::vector<int>>{
           {0, 0, 0}, {0, 0, 2}, {0, 2, 0}, {2, 0, 0}, {2, 2, 2}}) {
    const TreeParams tree =
        generate_tree(4, 6, FaultToleranceVector(entries));
    const AvailabilityEstimate e = estimate_availability(tree, rate);
    ftv_table.add_row({tree.ftv().to_string(),
                       std::to_string(tree.num_hosts()),
                       format_double(e.reaction_s * 1000.0, 1),
                       format_double(e.downtime_s_per_year, 2),
                       format_double(e.nines, 2)});
  }
  std::printf("%s\n", ftv_table.to_string().c_str());
  std::printf(
      "the paper's conclusion in one table: restricting failures is\n"
      "hopeless at this scale, but shrinking each failure's window from\n"
      "LSA-rate seconds to ANP-rate milliseconds buys multiple nines.\n\n");

  // §10 tie-in: Gill et al. find core links fail most, "align[ing] well
  // with the subset of Aspen trees highlighted in §8.1" — put the
  // redundancy where the failures are.
  std::printf(
      "== Where to place redundancy when core links fail most (n=4, k=6, "
      "54 hosts each) ==\n(annual rates by level: hosts 0.0, L2 0.05, L3 "
      "0.1, L4 0.5)\n\n");
  const std::vector<double> core_heavy{0.0, 0.0, 0.05, 0.1, 0.5};
  TextTable placement({"FTV", "downtime (s/yr)", "nines"});
  for (const auto& entries : std::vector<std::vector<int>>{
           {2, 0, 0}, {0, 2, 0}, {0, 0, 2}}) {
    const TreeParams tree =
        generate_tree(4, 6, FaultToleranceVector(entries));
    const AvailabilityEstimate e =
        estimate_availability_per_level(tree, core_heavy);
    placement.add_row({tree.ftv().to_string(),
                       format_double(e.downtime_s_per_year, 2),
                       format_double(e.nines, 2)});
  }
  std::printf("%s\n", placement.to_string().c_str());

  // ---- Measured availability via the incremental survivability engine ---
  // The tables above are closed-form arithmetic over expected failure
  // counts and windows.  The Monte Carlo engine measures the same quantity
  // structurally: progressive random link failures applied as warm
  // DeltaSession patches (never a from-scratch recompute on the happy
  // path), disconnection observed from the actual up*/down* tables.  A
  // self-check then asserts, per tree, that an incrementally patched state
  // is digest-equal to a full recompute of the same overlay.
  std::printf(
      "== Measured availability (Monte Carlo, incremental engine; n=4, "
      "k=6) ==\n(1,000 samples/tree, independent link failures, MTBF "
      "2190 h, MTTR 4 h)\n\n");
  bool checks_ok = true;
  TextTable measured({"FTV", "links", "P(disc <= 12 links)",
                      "mean links to disc", "availability"});
  for (const auto& entries : std::vector<std::vector<int>>{
           {0, 0, 0}, {0, 0, 2}, {0, 2, 0}, {2, 0, 0}, {2, 2, 2}}) {
    const TreeParams tree = generate_tree(4, 6, FaultToleranceVector(entries));
    const Topology topo = Topology::build(tree);
    SurvivabilityOptions options;
    options.seed = 2026;
    options.samples = 1'000;
    options.max_steps = 12;
    const SurvivabilityResult result = run_survivability(topo, options);
    measured.add_row(
        {tree.ftv().to_string(), std::to_string(topo.num_links()),
         format_double(result.p_disconnect(), 3),
         format_double(result.mean_links_to_disconnect(), 1),
         format_double(availability_from_survivability(result, 2190.0, 4.0),
                       6)});
    // Fail the first uplink of every third edge switch, then compare the
    // patched state against a from-scratch recompute of the overlay.
    routing::DeltaSession session(topo, DestGranularity::kEdge);
    std::vector<LinkId> faults;
    for (std::uint64_t e = 0; e < topo.num_switches(); e += 3) {
      const SwitchId s{static_cast<std::uint32_t>(e)};
      if (topo.level_of(s) != 1) break;
      faults.push_back(topo.up_neighbors(s)[0].link);
    }
    session.apply(faults);
    const RoutingState fresh = compute_updown_routes(
        topo, session.overlay(), DestGranularity::kEdge, 1);
    const bool digests_equal = tables_match_by_digest(session.state(), fresh);
    const bool restored = session.rollback();
    std::printf("self-check %s: incremental vs full recompute %s, "
                "rollback %s\n",
                tree.ftv().to_string().c_str(),
                digests_equal ? "digest-equal" : "MISMATCH",
                restored ? "restored" : "MISMATCH (rebuilt)");
    checks_ok = checks_ok && digests_equal && restored;
  }
  std::printf("%s\n", measured.to_string().c_str());
  std::printf(
      "the measured column agrees with the closed-form story: every FTV\n"
      "survives the single-failure regime; the engine's contribution is\n"
      "the tail — how many simultaneous failures each design absorbs.\n");
  return checks_ok;
}
