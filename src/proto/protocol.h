// Common interface over the failure-reaction protocols, so experiment
// drivers and tests can run LSP and ANP through identical harnesses.
#pragma once

#include <span>

#include "src/proto/fault_plane.h"
#include "src/proto/report.h"
#include "src/routing/fwd_table.h"
#include "src/topo/link_state.h"
#include "src/topo/topology.h"
#include "src/util/contracts.h"
#include "src/util/status.h"

namespace aspen {

enum class ProtocolKind { kLsp, kAnp };

[[nodiscard]] constexpr const char* to_cstring(ProtocolKind kind) {
  return kind == ProtocolKind::kLsp ? "LSP" : "ANP";
}

/// A protocol reacting to the events of the fault plane it owns.  The
/// single-event entry points are one-event schedules over
/// simulate_timed_events, after checking the event changes something.
class ProtocolSimulation {
 public:
  virtual ~ProtocolSimulation() = default;

  /// Runs one reaction over a compound, timed fault schedule.  Events must
  /// be sorted by `at`; the run continues until the protocol quiesces (or
  /// the event budget trips — see FailureReport::quiesced).
  virtual FailureReport simulate_timed_events(
      std::span<const TimedFault> events) = 0;

  FailureReport simulate_link_failure(LinkId link) {
    ASPEN_REQUIRE(overlay().is_up(link), "link ", link.value(),
                  " is already down");
    const TimedFault ev = TimedFault::link_fail(link);
    return simulate_timed_events({&ev, 1});
  }
  FailureReport simulate_link_recovery(LinkId link) {
    ASPEN_REQUIRE(!overlay().is_up(link), "link ", link.value(),
                  " is already up");
    const TimedFault ev = TimedFault::link_recover(link);
    return simulate_timed_events({&ev, 1});
  }
  /// Crashes a switch: every incident live link fails atomically and the
  /// switch stops processing or emitting protocol messages (its queued
  /// work is discarded) until recovered.
  FailureReport simulate_switch_failure(SwitchId s) {
    ASPEN_REQUIRE(is_alive(s), "switch ", s.value(), " is already down");
    const TimedFault ev = TimedFault::switch_fail(s);
    return simulate_timed_events({&ev, 1});
  }
  /// Revives a crashed switch and the links its crash took down (links
  /// whose far endpoint is still crashed stay down, custody moving there).
  FailureReport simulate_switch_recovery(SwitchId s) {
    ASPEN_REQUIRE(!is_alive(s), "switch ", s.value(), " is already up");
    const TimedFault ev = TimedFault::switch_recover(s);
    return simulate_timed_events({&ev, 1});
  }

  /// False while the switch is crashed (all protocols start fully alive).
  [[nodiscard]] bool is_alive(SwitchId s) const {
    return plane_.alive().at(s.value()) != 0;
  }

  /// Audits the protocol's internal bookkeeping invariants (custody state,
  /// plus each protocol's own — see src/proto/audit.h).  Valid at quiescent
  /// phase boundaries; an empty report means every invariant held.
  [[nodiscard]] virtual AuditReport audit() const { return plane_.audit(); }

  [[nodiscard]] virtual const RoutingState& tables() const = 0;
  [[nodiscard]] const FaultPlane& plane() const { return plane_; }
  [[nodiscard]] const LinkStateOverlay& overlay() const {
    return plane_.overlay();
  }
  /// Mutable physical-state access for fault injectors: chaos campaigns set
  /// per-link health (gray loss, flapping) directly on the overlay, without
  /// protocol involvement — gray failures are exactly the faults the
  /// routing layer does not get told about.
  [[nodiscard]] LinkStateOverlay& overlay_mut() { return plane_.overlay_mut(); }
  [[nodiscard]] const Topology& topology() const { return *topo_; }

 protected:
  explicit ProtocolSimulation(const Topology& topo)
      : topo_(&topo), plane_(topo) {}

  const Topology* topo_;
  FaultPlane plane_;
};

}  // namespace aspen
