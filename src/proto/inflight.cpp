#include "src/proto/inflight.h"

#include "src/proto/experiment.h"
#include "src/util/contracts.h"
#include "src/util/status.h"

namespace aspen {

namespace {

// Data-plane per-hop latency: propagation dominates (switching is ns).
constexpr SimTime kHopLatency = 0.001;  // 1 µs in ms

}  // namespace

WalkResult walk_during_convergence(const Topology& topo,
                                   const RoutingState& before,
                                   const RoutingState& after,
                                   const FailureReport& report,
                                   const LinkStateOverlay& actual,
                                   HostId src, HostId dst, SimTime inject_ms,
                                   const WalkOptions& options) {
  ASPEN_REQUIRE(report.table_change_completed.size() == topo.num_switches(),
                "report lacks per-switch change times");
  ASPEN_REQUIRE(before.num_dests() == after.num_dests(),
                "before/after tables have different granularity");

  // The walk's clock advances per hop, so a flapping link's phase is
  // judged when the packet reaches it, not when it was injected.
  return walk_rows(
      topo, actual, src, dst, options, inject_ms, kHopLatency,
      [&](SwitchId at, SimTime now) {
        ASPEN_ASSERT(now >= inject_ms,
                     "in-flight clock ran backwards during a walk");
        // The racing lookup: old row before this switch's change completes.
        const SimTime flipped_at = report.table_change_completed[at.value()];
        const bool updated =
            flipped_at != FailureReport::kNoChange && now >= flipped_at;
        const RoutingState& view = updated ? after : before;
        return view.tables.hops(
            view.tables.row(at.value(), view.dest_index(dst)));
      });
}

std::vector<WindowSample> measure_vulnerability_window(
    const Topology& topo, const RoutingState& before,
    const RoutingState& after, const FailureReport& report,
    const LinkStateOverlay& actual, const std::vector<Flow>& flows,
    const std::vector<SimTime>& sample_times_ms,
    const WalkOptions& options) {
  std::vector<WindowSample> curve;
  curve.reserve(sample_times_ms.size());
  for (const SimTime t : sample_times_ms) {
    WindowSample sample;
    sample.inject_ms = t;
    for (const Flow& flow : flows) {
      ASPEN_ASSERT(flow.src != flow.dst, "window flows must cross the fabric");
      ++sample.flows;
      const WalkResult walk =
          walk_during_convergence(topo, before, after, report, actual,
                                  flow.src, flow.dst, t, options);
      if (!walk.delivered()) ++sample.lost;
    }
    curve.push_back(sample);
  }
  return curve;
}

std::vector<WindowSample> run_window_experiment(
    ProtocolKind kind, const Topology& topo, LinkId link,
    const std::vector<Flow>& flows,
    const std::vector<SimTime>& sample_times_ms, DelayModel delays,
    AnpOptions anp_options) {
  auto proto = make_protocol(kind, topo, delays, anp_options);
  const RoutingState before = proto->tables();
  const FailureReport report = proto->simulate_link_failure(link);
  const auto curve = measure_vulnerability_window(
      topo, before, proto->tables(), report, proto->overlay(), flows,
      sample_times_ms);
  (void)proto->simulate_link_recovery(link);
  return curve;
}

}  // namespace aspen
