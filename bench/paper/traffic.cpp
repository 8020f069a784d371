// Experiment X1 (extension) — bandwidth properties across the Aspen design
// space.  The paper keeps every tree non-oversubscribed (k/2 uplinks per L1
// switch for k/2 hosts) and §1 credits fat trees with "full bisection
// bandwidth [and] diverse yet short paths"; this bench quantifies both for
// every 4-level 6-port Aspen tree, and then shows how a failure degrades
// throughput with and without redundancy.
#include <cstdio>

#include "bench/paper/experiments.h"
#include "src/aspen/enumerate.h"
#include "src/aspen/generator.h"
#include "src/proto/anp.h"
#include "src/routing/paths.h"
#include "src/routing/updown.h"
#include "src/traffic/load.h"
#include "src/traffic/patterns.h"
#include "src/util/table.h"

namespace {

using namespace aspen;

LoadResult run_permutation(const Topology& topo, const Router& router,
                           const LinkStateOverlay& actual,
                           std::uint64_t seed) {
  Rng rng(seed);
  const auto flows = permutation_traffic(topo, rng);
  return assign_load(topo, router, actual, flows);
}

}  // namespace

bool aspen::bench::traffic() {
  std::printf(
      "== Permutation throughput and path diversity across all n=4, k=6 "
      "Aspen trees ==\n(max-min fair rates, unit capacities, ECMP-pinned "
      "paths, seed-averaged)\n\n");

  TextTable table({"FTV", "hosts", "norm. throughput", "min rate",
                   "mean path links", "cross-tree paths"});
  for (const TreeParams& params : enumerate_trees(4, 6)) {
    const Topology topo = Topology::build(params);
    const RoutingState routes = compute_updown_routes(topo);
    const TableRouter router(routes);
    const LinkStateOverlay intact(topo);

    double throughput = 0.0;
    double min_rate = 1.0;
    double path_links = 0.0;
    const int kSeeds = 3;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const LoadResult r = run_permutation(topo, router, intact, seed);
      throughput += r.normalized_throughput();
      min_rate = std::min(min_rate, r.min_rate);
      path_links += r.mean_path_links;
    }
    const std::uint64_t diversity = count_shortest_paths(
        topo, routes, HostId{0},
        HostId{static_cast<std::uint32_t>(topo.num_hosts() - 1)});

    table.add_row({params.ftv().to_string(),
                   std::to_string(params.num_hosts()),
                   format_double(throughput / kSeeds, 3),
                   format_double(min_rate, 3),
                   format_double(path_links / kSeeds, 2),
                   std::to_string(diversity)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "every FTV keeps the 1:1 subscription ratio, so the rates above are\n"
      "limited only by single-path ECMP hash collisions (the well-known\n"
      "~40-60%% permutation throughput of hash-based ECMP), not by\n"
      "structural oversubscription — and they *improve* with fault\n"
      "tolerance as the DCC multiplies path diversity.  The scalability\n"
      "cost of fault tolerance is host count, not per-host bandwidth.\n\n");

  std::printf(
      "== Throughput under a single failure: fat tree vs Aspen <1,0,0>, "
      "k=4 ==\n(hotspot incast into the pod below the failure; ANP-patched "
      "tables)\n\n");
  TextTable degraded({"tree", "state", "aggregate", "min rate",
                      "unroutable"});
  for (const auto& ftv : std::vector<std::vector<int>>{{0, 0, 0}, {1, 0, 0}}) {
    const Topology topo =
        Topology::build(generate_tree(4, 4, FaultToleranceVector(ftv)));
    Rng rng(5);
    const auto flows = hotspot_traffic(topo, 0, rng);

    const RoutingState healthy_routes = compute_updown_routes(topo);
    const LinkStateOverlay intact(topo);
    const LoadResult healthy = assign_load(
        topo, TableRouter(healthy_routes), intact, flows);
    degraded.add_row({topo.params().ftv().to_string(), "healthy",
                      format_double(healthy.aggregate_throughput, 2),
                      format_double(healthy.min_rate, 3),
                      std::to_string(healthy.flows_unroutable)});

    AnpOptions extended;
    extended.notify_children = true;
    AnpSimulation anp(topo, DelayModel{}, extended);
    // Fail a link on the hot pod's downward path (L2 switch above edge 0).
    const SwitchId edge0 = topo.switch_at(1, 0);
    const auto& uplink = topo.up_neighbors(edge0)[0];
    (void)anp.simulate_link_failure(uplink.link);
    const LoadResult hurt =
        assign_load(topo, TableRouter(anp.tables()), anp.overlay(), flows);
    degraded.add_row({topo.params().ftv().to_string(), "1 failure + ANP",
                      format_double(hurt.aggregate_throughput, 2),
                      format_double(hurt.min_rate, 3),
                      std::to_string(hurt.flows_unroutable)});
  }
  std::printf("%s\n", degraded.to_string().c_str());
  return true;
}
