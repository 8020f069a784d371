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
//   * crash-links custody is held only by crashed switches (kCrashCustody)
//     and only over links that are actually down (kCustodyLinkUp);
//   * adjacency resync flows only along directions notifications flow: up
//     always, down only under AnpOptions::notify_children
//     (kResyncDirection) — a resync the peer can never retract would wedge
//     its table permanently;
//   * at quiescence no reliable conversation is still open
//     (kInflightAccounting), transport counters are coherent
//     (kTransportAccounting), and every channel transmit() is accounted as
//     delivered or dropped, plus duplicates (kChannelAccounting).
//
// audit_anp()/audit_lsp() are valid at quiescent phase boundaries (between
// reaction runs); mid-run, detections still queued make a stale withdrawal
// log legitimate.  The stats auditors hold at any time.
//
// AnpAuditPeer / LspAuditPeer are test-only corruption hooks: the protocol
// APIs cannot produce these states (that is the point of the invariants),
// so tests plant them directly and prove each auditor fires.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/proto/anp.h"
#include "src/proto/lsp.h"
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

/// Crash-custody invariants shared by ANP and LSP: every custody list
/// belongs to a crashed switch, and every link it holds is down.
[[nodiscard]] AuditReport audit_custody(
    const Topology& topo, const LinkStateOverlay& overlay,
    const std::vector<char>& alive,
    const std::map<std::uint32_t, std::vector<LinkId>>& crash_links);

/// The §6-extension direction rule for adjacency resync: legal upward
/// always, downward only under notify_children.
[[nodiscard]] AuditReport audit_resync_direction(const AnpSimulation& sim,
                                                 SwitchId from, SwitchId to);

/// Full protocol-state audits (equivalent to the sims' audit() overrides).
[[nodiscard]] AuditReport audit_anp(const AnpSimulation& sim);
[[nodiscard]] AuditReport audit_lsp(const LspSimulation& sim);

/// Test-only corruption hooks into AnpSimulation's private state.
struct AnpAuditPeer {
  /// Flags `dest` announced-lost (or not) without touching the entry.
  static void set_announced_lost(AnpSimulation& sim, SwitchId s,
                                 std::uint64_t dest, bool lost);
  /// Plants a withdrawal-log record against `link` at `s`.
  static void log_removed_by_link(AnpSimulation& sim, SwitchId s, LinkId link,
                                  std::uint64_t dest,
                                  const Topology::Neighbor& hop);
  /// Hands `s` custody of `link` without crashing anything.
  static void add_crash_custody(AnpSimulation& sim, SwitchId s, LinkId link);
  /// Rewrites liveness without running the crash/recovery machinery.
  static void set_alive(AnpSimulation& sim, SwitchId s, bool alive);
  static RoutingState& tables(AnpSimulation& sim);
  static LinkStateOverlay& overlay(AnpSimulation& sim);
};

/// Test-only corruption hooks into LspSimulation's private state.
struct LspAuditPeer {
  static void add_crash_custody(LspSimulation& sim, SwitchId s, LinkId link);
  static void set_alive(LspSimulation& sim, SwitchId s, bool alive);
  static LinkStateOverlay& overlay(LspSimulation& sim);
};

}  // namespace aspen::proto
