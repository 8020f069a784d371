// Experiment C2 — the paper's §1 motivation: "a link failure at the top
// level of a 3-level, 64-port fat tree can logically disconnect as many as
// 1,024, or 1.5%, of the topology's hosts."
//
// We build the full 65,536-host, 64-port, 3-level fat tree (196,608 links —
// §1 footnote 1), fail one top-level link, and walk sampled flows using the
// stale (pre-failure) routing state every switch still holds: destination
// hosts in the cut pod lose the flows that hash through the dead core.
#include <cstdio>

#include <span>

#include "bench/paper/experiments.h"
#include "src/aspen/generator.h"
#include "src/routing/delta.h"
#include "src/routing/packet_walk.h"
#include "src/routing/reachability.h"
#include "src/routing/updown.h"
#include "src/topo/topology.h"
#include "src/util/rng.h"

bool aspen::bench::disconnection() {
  const TreeParams params = fat_tree(3, 64);
  std::printf("building 3-level, 64-port fat tree: %lu hosts, %lu links\n",
              static_cast<unsigned long>(params.num_hosts()),
              static_cast<unsigned long>(params.total_links()));
  const Topology topo = Topology::build(params);
  const StructuralRouter stale(topo);  // the not-yet-reconverged fabric

  // Fail one core→aggregation link.
  const SwitchId core = topo.switch_at(3, 0);
  const auto& victim = topo.down_neighbors(core)[0];
  const SwitchId agg = topo.switch_of(victim.node);
  LinkStateOverlay actual(topo);
  actual.fail(victim.link);

  // The logically disconnectable set: every host under the agg's pod.
  const PodId pod = topo.pod_of(agg);
  const std::uint64_t half_k = static_cast<std::uint64_t>(params.k) / 2;
  const std::uint64_t pod_hosts = half_k * half_k;  // (k/2)^2 = 1,024
  std::printf(
      "failed link: %s -> %s (top level, pod %u)\n"
      "hosts in the destination pod: %lu = %.2f%% of all hosts "
      "(paper: 1,024 = 1.5%%)\n\n",
      to_string(core).c_str(), to_string(agg).c_str(), pod.value(),
      static_cast<unsigned long>(pod_hosts),
      100.0 * static_cast<double>(pod_hosts) /
          static_cast<double>(params.num_hosts()));

  // Sampled random flows across the whole fabric.
  Rng rng(2026);
  const ReachabilityStats sample =
      measure_sampled(topo, stale, actual, 200'000, rng);
  std::printf(
      "random flows: %lu walked, %lu dropped (%.3f%%), %lu distinct "
      "destination hosts affected\n",
      static_cast<unsigned long>(sample.flows),
      static_cast<unsigned long>(sample.dropped),
      100.0 * static_cast<double>(sample.dropped) /
          static_cast<double>(sample.flows),
      static_cast<unsigned long>(sample.affected_destinations));

  // Focused probe: for every destination host in the cut pod, search flow
  // seeds until we find a flow from a remote host whose ECMP hash sends it
  // through the dead core — that flow is dropped.  Finding one for every
  // pod host exhibits the "as many as 1,024 hosts" worst case directly.
  const std::uint64_t edges_per_pod = half_k;
  const std::uint64_t first_edge = pod.value() * edges_per_pod;
  std::uint64_t affected_dsts = 0;
  std::uint64_t walks = 0;
  const HostId remote{static_cast<std::uint32_t>(topo.num_hosts() - 1)};
  for (std::uint64_t e = first_edge; e < first_edge + edges_per_pod; ++e) {
    for (const HostId dst : topo.hosts_of_edge(topo.switch_at(1, e))) {
      for (std::uint64_t seed = 0; seed < 16 * half_k * half_k; ++seed) {
        WalkOptions options;
        options.flow_seed = seed;
        ++walks;
        if (!walk_packet(topo, stale, actual, remote, dst, options)
                 .delivered()) {
          ++affected_dsts;
          break;
        }
      }
    }
  }
  std::printf(
      "focused probe: a doomed flow was exhibited for %lu of %lu hosts in "
      "the cut pod (%lu walks)\n",
      static_cast<unsigned long>(affected_dsts),
      static_cast<unsigned long>(pod_hosts),
      static_cast<unsigned long>(walks));
  std::printf(
      "\nconclusion: one top-level link failure leaves every host of the\n"
      "cut pod reachable only by flows that avoid the dead core — exactly\n"
      "the \"logical disconnection\" of up to %.1f%% of hosts the paper\n"
      "motivates Aspen trees with.\n",
      100.0 * static_cast<double>(pod_hosts) /
          static_cast<double>(params.num_hosts()));

  // ---- Reconvergence via the incremental engine -------------------------
  // The drops above are a pre-convergence phenomenon: the tables are stale.
  // Once up*/down* reconverges — which the warm DeltaSession does by
  // patching only the rows the dead link dirties, not recomputing the
  // fabric — every edge pair is reachable again.  Run the same top-level
  // cut on a converged 3-level, 16-port fat tree (the 64-port fabric's
  // per-edge tables would dwarf the walk experiment this bench is about).
  // A self-check proves the patched tables digest-equal to a from-scratch
  // recompute of the faulted overlay.
  std::printf("\n== reconvergence: incremental up*/down* repair ==\n");
  const Topology small = Topology::build(fat_tree(3, 16));
  routing::DeltaSession session(small, DestGranularity::kEdge);
  std::uint64_t edges = 0;
  while (edges < small.num_switches() &&
         small.level_of(SwitchId{static_cast<std::uint32_t>(edges)}) == 1) {
    ++edges;
  }
  const std::uint64_t all_pairs = edges * (edges - 1);
  const SwitchId small_core = small.switch_at(3, 0);
  const LinkId cut = small.down_neighbors(small_core)[0].link;
  const RecomputeStats stats = session.apply(std::span<const LinkId>{&cut, 1});
  std::uint64_t pairs = 0;
  for (std::uint64_t e = 0; e < edges; ++e) {
    pairs += session.state().tables.reachable_count(e);
  }
  std::printf(
      "3-level, 16-port fat tree: cut %s, patched %lu rows in place\n"
      "(%lu full recomputes out of %lu rows), reachable edge pairs "
      "%lu / %lu\n",
      to_string(cut).c_str(),
      static_cast<unsigned long>(stats.patched_switches),
      static_cast<unsigned long>(stats.full_rows),
      static_cast<unsigned long>(stats.total_dests),
      static_cast<unsigned long>(pairs),
      static_cast<unsigned long>(all_pairs));
  const RoutingState fresh = compute_updown_routes(
      small, session.overlay(), DestGranularity::kEdge, 1);
  const bool digests_equal = tables_match_by_digest(session.state(), fresh);
  std::printf("self-check: incremental state vs full recompute: %s\n",
              digests_equal ? "digest-equal" : "MISMATCH");
  bool ok = pairs == all_pairs && digests_equal;
  const bool restored = session.rollback();
  std::printf("rollback: baseline digests %s\n",
              restored ? "restored" : "MISMATCH (rebuilt)");
  ok = ok && restored;
  std::printf(
      "\nafter reconvergence no pair is lost: the paper's 1.5%% logical\n"
      "disconnection is the cost of the *window*, which is what Aspen\n"
      "trees shrink.\n");
  return ok;
}
