// Experiment X14 — the routing engine at mega scale, in RAM.
//
// One n=5, k=48-class tree (FTV <0,0,7,23>; `--quick` shrinks it to
// <0,0,23,23> for CI) is routed from scratch, then one top-level link is
// failed and healed through the incremental engine.  perfbench's workloads
// cannot host a tree this size, so these are the only wall-clock numbers
// taken outside perfbench.  A deep table compare at this scale costs as
// much as the patch, so identity is checked on the per-switch digests and
// a mismatch exits 2.  Output is one JSON document on stdout, with peak
// RSS (VmHWM) beside the wall times.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "src/obs/obs.h"
#include "src/aspen/generator.h"
#include "src/routing/updown.h"
#include "src/topo/link_state.h"

namespace {

using namespace aspen;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             // aspen-lint: allow(wall-clock) -- benchmark harness timing; measures host speed and never feeds a simulated result
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`reps` wall time of `fn` in milliseconds.  Timed regions run
/// with observability disabled: the binary reports the obs-off cost of the
/// engine, while the untimed verification passes (metrics enabled in
/// main) still populate the registry for the trailing "metrics" block.
template <typename Fn>
double time_best_ms(int reps, Fn&& fn) {
  const obs::PauseObs quiet;
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_ms();
    fn();
    const double elapsed = now_ms() - t0;
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

/// Peak resident set (VmHWM) in KiB, or -1 if /proc is unavailable.
long peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return -1;
}

/// Prints the run's JSON fields; true when the patched states match fresh
/// computations by digest.
bool run_mega(bool quick) {
  const FaultToleranceVector ftv = quick ? FaultToleranceVector{0, 0, 23, 23}
                                         : FaultToleranceVector{0, 0, 7, 23};
  const double t_build = now_ms();
  const Topology topo = Topology::build(generate_tree(5, 48, ftv));
  const double build_ms = now_ms() - t_build;
  const LinkStateOverlay intact(topo);

  std::printf("  \"config\": {\"n\": 5, \"k\": 48, \"ftv\": \"%s\"},\n",
              ftv.to_string().c_str());
  std::printf("  \"switches\": %llu, \"links\": %llu, \"dests\": %llu,\n",
              static_cast<unsigned long long>(topo.num_switches()),
              static_cast<unsigned long long>(topo.num_links()),
              static_cast<unsigned long long>(topo.params().S));
  std::printf("  \"build_ms\": %.1f,\n", build_ms);

  RoutingState state;
  const double full_ms = time_best_ms(quick ? 1 : 2, [&] {
    state = compute_updown_routes(topo, intact, DestGranularity::kEdge, 1);
  });

  // Single-link churn against the freshly failed overlay; identity by
  // digest (a deep == at this scale costs as much as the patch itself).
  const std::span<const LinkId> top = topo.links_at_level(topo.levels());
  const LinkId churn = top[top.size() / 2];
  LinkStateOverlay failed(topo);
  failed.fail(churn);
  const LinkId changed[] = {churn};

  // At this scale even the table *copy* is a hundreds-of-ms operation, so
  // the patch is timed alone (copy outside the timed region, one rep).
  RoutingState patched = state;
  RecomputeStats stats{};
  double inc_fail_ms = 0.0;
  double inc_heal_ms = 0.0;
  {
    const obs::PauseObs quiet;
    const double t_fail = now_ms();
    stats = recompute_updown_routes(topo, failed, patched, changed, 1);
    inc_fail_ms = now_ms() - t_fail;
  }
  const RoutingState fresh_failed =
      compute_updown_routes(topo, failed, DestGranularity::kEdge, 1);
  const bool fail_identical = tables_match_by_digest(patched, fresh_failed);

  RoutingState healed = patched;
  {
    const obs::PauseObs quiet;
    const double t_heal = now_ms();
    (void)recompute_updown_routes(topo, intact, healed, changed, 1);
    inc_heal_ms = now_ms() - t_heal;
  }
  const bool heal_identical = tables_match_by_digest(healed, state);

  std::printf("  \"full_recompute_ms\": %.1f,\n", full_ms);
  std::printf("  \"incremental_fail_ms\": %.2f,\n", inc_fail_ms);
  std::printf("  \"incremental_heal_ms\": %.2f,\n", inc_heal_ms);
  std::printf("  \"rows\": {\"total\": %llu, \"full\": %llu, "
              "\"escalated\": %llu, \"patched_switches\": %llu},\n",
              static_cast<unsigned long long>(stats.total_dests),
              static_cast<unsigned long long>(stats.full_rows),
              static_cast<unsigned long long>(stats.escalated_rows),
              static_cast<unsigned long long>(stats.patched_switches));
  std::printf("  \"fail_identical_by_digest\": %s,\n",
              fail_identical ? "true" : "false");
  std::printf("  \"heal_identical_by_digest\": %s,\n",
              heal_identical ? "true" : "false");
  std::printf("  \"state_fingerprint\": \"0x%016llx\",\n",
              static_cast<unsigned long long>(state_fingerprint(state)));
  std::printf("  \"peak_rss_mb\": %.1f,\n",
              static_cast<double>(peak_rss_kb()) / 1024.0);
  return fail_identical && heal_identical;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") != 0) {
      std::fprintf(stderr, "usage: bench_routing_scale [--quick]\n");
      return 1;
    }
    quick = true;
  }

  aspen::obs::ObsConfig obs_config;
  obs_config.metrics = true;
  aspen::obs::configure(obs_config);

  std::printf("{\n");
  std::printf("  \"experiment\": \"routing_scale_mega\",\n");
  std::printf("  \"quick\": %s,\n", quick ? "true" : "false");
  const bool ok = run_mega(quick);
  std::printf("  \"metrics\":\n%s\n",
              aspen::obs::metrics().to_json(2).c_str());
  std::printf("}\n");
  return ok ? 0 : 2;
}
