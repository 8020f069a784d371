// In-flight packet loss during re-convergence — the §8.4 window of
// vulnerability, measured instead of estimated.
//
// "There is a window of vulnerability after a failure or recovery while
//  ANP notifications are sent and processed, and packet loss can occur
//  during this window."
//
// A protocol run yields three artifacts: the pre-failure tables, the
// post-reaction tables, and each switch's table-change completion time
// (FailureReport::table_change_completed).  A packet injected at time t is
// walked hop by hop with data-plane latency; at each switch it consults the
// *old* entry if it arrives before that switch's change completed and the
// *new* entry afterwards — exactly the mixed state real packets race
// against.  Sweeping t maps out the loss window.  The walker is only that
// row source: the hop loop is the shared kernel (walk_rows over
// ecmp::walk), so with no switch flipping it retraces walk_packet.
//
// Approximation: a switch whose table changes more than once during one
// reaction (rare for single failures) is modeled as flipping once, at its
// final change time.
#pragma once

#include <cstdint>
#include <vector>

#include "src/proto/anp.h"
#include "src/proto/protocol.h"
#include "src/proto/report.h"
#include "src/routing/packet_walk.h"
#include "src/topo/link_state.h"
#include "src/topo/topology.h"
#include "src/traffic/patterns.h"

namespace aspen {

/// Walks one packet injected at `inject_ms` (relative to the failure's
/// detection instant) through the transitioning fabric.
[[nodiscard]] WalkResult walk_during_convergence(
    const Topology& topo, const RoutingState& before,
    const RoutingState& after, const FailureReport& report,
    const LinkStateOverlay& actual, HostId src, HostId dst,
    SimTime inject_ms, const WalkOptions& options = {});

/// One point of a loss-vs-time curve.
struct WindowSample {
  SimTime inject_ms = 0.0;
  std::uint64_t flows = 0;
  std::uint64_t lost = 0;

  [[nodiscard]] double loss_rate() const {
    return flows == 0 ? 0.0
                      : static_cast<double>(lost) /
                            static_cast<double>(flows);
  }
};

/// Injects every flow at each sample time and records losses — the window
/// of vulnerability profile.  Sample times are relative to detection.
[[nodiscard]] std::vector<WindowSample> measure_vulnerability_window(
    const Topology& topo, const RoutingState& before,
    const RoutingState& after, const FailureReport& report,
    const LinkStateOverlay& actual, const std::vector<Flow>& flows,
    const std::vector<SimTime>& sample_times_ms,
    const WalkOptions& options = {});

/// Convenience harness: runs `kind` against a failure of `link`, measures
/// the window with the given flows/sample times, rolls the failure back,
/// and returns the curve.
[[nodiscard]] std::vector<WindowSample> run_window_experiment(
    ProtocolKind kind, const Topology& topo, LinkId link,
    const std::vector<Flow>& flows,
    const std::vector<SimTime>& sample_times_ms, DelayModel delays = {},
    AnpOptions anp_options = {});

}  // namespace aspen
