// Protocol-state invariant auditors (§6, §9.2, docs/CHAOS.md).
//
// The failure-reaction protocols keep redundant bookkeeping — withdrawal
// logs, announced-lost flags, crash-links custody, transport conversations,
// channel counters — and each piece carries an invariant the replay logic
// depends on:
//
//   * a withdrawal log keyed by a link only exists while that link is down
//     (kWithdrawalLogStale) — recovery detection replays and erases it;
//   * a destination flagged announced-lost has an empty forwarding entry
//     (kAnnouncedLostMismatch) — any restoration clears the flag;
//   * crash custody is held only by crashed switches (kCrashCustody) and
//     only over links that are actually down (kCustodyLinkUp) — audited by
//     FaultPlane::audit (src/proto/fault_plane.h);
//   * adjacency resync flows only along directions notifications flow: up
//     always, down only under AnpOptions::notify_children
//     (kResyncDirection) — a resync the peer can never retract would wedge
//     its table permanently;
//   * at quiescence no reliable conversation is still open
//     (kInflightAccounting), transport counters are coherent
//     (kTransportAccounting), and every channel transmit() is accounted as
//     delivered or dropped, plus duplicates (kChannelAccounting).
//
// The protocols' audit() overrides are valid at quiescent phase boundaries
// (between reaction runs); mid-run, detections still queued make a stale
// withdrawal log legitimate.  The stats auditors hold at any time.
//
// AnpAuditPeer / FaultPlaneAuditPeer are test-only corruption hooks: the
// protocol APIs cannot produce these states (that is the point of the
// invariants), so tests plant them directly and prove each auditor fires.
#pragma once

#include <cstdint>

#include "src/proto/anp.h"
#include "src/proto/fault_plane.h"
#include "src/sim/channel.h"
#include "src/util/contracts.h"

namespace aspen::proto {

/// Channel conservation: delivered + dropped == attempted + duplicated.
[[nodiscard]] AuditReport audit_channel(const ChannelStats& stats);

/// Transport counter coherence: gave_up <= sends and retransmits bounded by
/// sends·max_retries.
[[nodiscard]] AuditReport audit_transport(const TransportStats& stats,
                                          int max_retries);

/// At quiescence every conversation is acked or abandoned: in_flight() == 0.
[[nodiscard]] AuditReport audit_transport_quiescence(
    const ReliableTransport& transport);

/// The §6-extension direction rule for adjacency resync: legal upward
/// always, downward only under notify_children.
[[nodiscard]] AuditReport audit_resync_direction(const AnpSimulation& sim,
                                                 SwitchId from, SwitchId to);

/// Test-only corruption hooks into AnpSimulation's private state.
struct AnpAuditPeer {
  /// Flags `dest` announced-lost (or not) without touching the entry.
  static void set_announced_lost(AnpSimulation& sim, SwitchId s,
                                 std::uint64_t dest, bool lost);
  /// Plants a withdrawal-log record against `link` at `s`.
  static void log_removed_by_link(AnpSimulation& sim, SwitchId s, LinkId link,
                                  std::uint64_t dest,
                                  const Topology::Neighbor& hop);
};

/// Test-only corruption hook into FaultPlane's private state.
struct FaultPlaneAuditPeer {
  /// Hands `s` custody of `link` without crashing anything.
  static void add_custody(FaultPlane& plane, SwitchId s, LinkId link);
};

}  // namespace aspen::proto
