// Experiment M1 — google-benchmark microbenchmarks of the library's core
// operations: tree generation, enumeration, topology construction, route
// computation, packet walking, and single-failure protocol reactions.
#include <benchmark/benchmark.h>

#include "src/aspen/enumerate.h"
#include "src/aspen/fixed_hosts.h"
#include "src/aspen/generator.h"
#include "src/proto/anp.h"
#include "src/proto/lsp.h"
#include "src/routing/packet_walk.h"
#include "src/routing/updown.h"
#include "src/topo/topology.h"
#include "src/topo/validate.h"

namespace {

using namespace aspen;

void BM_GenerateTree(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const auto ftv = FaultToleranceVector::fat_tree(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_tree(n, k, ftv));
  }
}
BENCHMARK(BM_GenerateTree)->Args({3, 16})->Args({5, 64})->Args({7, 128});

void BM_EnumerateTrees(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(count_trees(n, k));
  }
}
BENCHMARK(BM_EnumerateTrees)->Args({4, 6})->Args({3, 64})->Args({5, 16});

void BM_BuildTopology(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const TreeParams params = fat_tree(n, k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Topology::build(params));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(params.total_links()));
}
BENCHMARK(BM_BuildTopology)->Args({3, 8})->Args({3, 16})->Args({4, 8});

void BM_ValidateTopology(benchmark::State& state) {
  const Topology topo = Topology::build(fat_tree(3, 8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(validate_topology(topo));
  }
}
BENCHMARK(BM_ValidateTopology);

void BM_ComputeRoutes(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const Topology topo = Topology::build(fat_tree(n, k));
  const LinkStateOverlay overlay(topo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_updown_routes(topo, overlay));
  }
}
BENCHMARK(BM_ComputeRoutes)->Args({3, 8})->Args({3, 16})->Args({4, 8});

void BM_PacketWalk(benchmark::State& state) {
  const Topology topo = Topology::build(fat_tree(3, 16));
  const LinkStateOverlay actual(topo);
  const StructuralRouter router(topo);
  std::uint32_t flow = 0;
  for (auto _ : state) {
    WalkOptions options;
    options.flow_seed = ++flow;
    benchmark::DoNotOptimize(walk_packet(
        topo, router, actual, HostId{flow % 64},
        HostId{(flow * 7 + 13) % static_cast<std::uint32_t>(
                                     topo.num_hosts())},
        options));
  }
}
BENCHMARK(BM_PacketWalk);

void BM_LspFailureReaction(benchmark::State& state) {
  const Topology topo = Topology::build(fat_tree(3, 8));
  LspSimulation lsp(topo);
  const LinkId link = topo.links_at_level(3)[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(lsp.simulate_link_failure(link));
    benchmark::DoNotOptimize(lsp.simulate_link_recovery(link));
  }
}
BENCHMARK(BM_LspFailureReaction);

void BM_AnpFailureReaction(benchmark::State& state) {
  const Topology topo =
      Topology::build(design_fixed_host_tree(3, 8, /*extra_levels=*/1));
  AnpSimulation anp(topo);
  const LinkId link = topo.links_at_level(2)[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(anp.simulate_link_failure(link));
    benchmark::DoNotOptimize(anp.simulate_link_recovery(link));
  }
}
BENCHMARK(BM_AnpFailureReaction);

void BM_StructuralNextHops(benchmark::State& state) {
  const Topology topo = Topology::build(fat_tree(3, 64));
  const StructuralRouter router(topo);
  const SwitchId edge = topo.switch_at(1, 0);
  std::uint32_t dest = 0;
  std::vector<Topology::Neighbor> scratch;
  for (auto _ : state) {
    dest = (dest + 37) % static_cast<std::uint32_t>(topo.num_hosts());
    if (dest < 32) dest = 32;  // stay off the probe edge's own hosts
    benchmark::DoNotOptimize(router.next_hops(edge, HostId{dest}, scratch));
  }
}
BENCHMARK(BM_StructuralNextHops);

}  // namespace
