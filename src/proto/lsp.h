// LSP — a link-state protocol in the style of OSPF/IS-IS (§9.2).
//
// The paper's baseline: "we implemented both ANP and a link-state protocol
// based on OSPF, which we call LSP."  On a link event both endpoints
// originate sequence-numbered LSAs and flood them over every live link.
// Each switch that receives a *new* LSA spends DelayModel::lsa_processing of
// serialized CPU (SPF recomputation is folded into that constant, per the
// paper's measurement model), installs the update, and re-floods; duplicate
// copies cost only a sequence-number check.
//
// Forwarding tables are the global up*/down* shortest-path routes for the
// switch's current view.  Which switches' tables change at all is decided
// exactly, by diffing every switch's current table against the post-run
// converged routes, which the incremental engine patches in place.  The
// engine reports the rows it may have rewritten, so a switch whose table is
// known to equal the pre-run converged routes is compared (and flipped) on
// those rows alone; any other switch gets the full per-switch compare.  A
// switch's table flips to the post-run routes once it has processed a new
// LSA for *every* fault event in the run (for a single link event — the
// paper's experiment — that is simply its first new LSA, which is when we
// timestamp its reaction).
//
// ## Unreliable control plane
//
// LSAs ride the same seeded lossy ChannelModel as ANP notifications
// (DelayModel::channel).  With `channel.reliable` set, each LSA transmission
// to a neighbor is acked and retransmitted on an exponential-backoff timer
// until acknowledged or the retry cap trips — OSPF's retransmission-list
// mechanism.  Without it, a dropped LSA can leave a switch that needed new
// routes permanently stale (FailureReport::stale_switches counts these; a
// later flood heals them, because the next run diffs against the stale
// tables).  Switch crashes discard the victim's queued work and fail its
// incident links atomically (FaultPlane, src/proto/fault_plane.h); each run
// first replays its schedule on a copy of the plane to find the LSA
// origins and the post-run routes.  The model is conservative for partial
// knowledge — a switch that heard about only some of a run's events keeps
// its old tables rather than computing a mixed view (the LSDB oracle in
// tests/lsp_full.h models per-switch views exactly, for single events).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/proto/protocol.h"
#include "src/proto/report.h"
#include "src/routing/updown.h"
#include "src/sim/channel.h"
#include "src/sim/simulator.h"
#include "src/topo/link_state.h"
#include "src/topo/topology.h"

namespace aspen {

class LspSimulation final : public ProtocolSimulation {
 public:
  explicit LspSimulation(const Topology& topo, DelayModel delays = {},
                         DestGranularity granularity = DestGranularity::kEdge);

  /// One flood run over a compound, timed fault schedule.  A crash fails
  /// every incident live link: each surviving peer originates an LSA, and
  /// the victim floods nothing.
  FailureReport simulate_timed_events(
      std::span<const TimedFault> events) override;

  /// Converged forwarding tables for the current link state.
  [[nodiscard]] const RoutingState& tables() const override { return tables_; }

 private:
  /// One flood run's simulator, medium and per-switch flood state.  Every
  /// closure the run schedules carries a pointer to it plus the LSA's
  /// (switch, slot, record, hops, arrival link), so each fits the
  /// simulator's inline capture.  Holds pointers into itself (the
  /// transport), so it never moves.
  struct FloodRun {
    FloodRun(LspSimulation& owner, const std::vector<char>& changed,
             std::uint32_t slots, std::uint32_t records,
             std::uint32_t required_records);
    FloodRun(const FloodRun&) = delete;
    FloodRun& operator=(const FloodRun&) = delete;

    /// `origin`'s own LSA for `slot`: detection fired, SPF starts.
    void originate(SwitchId origin, std::uint32_t slot, std::uint32_t rec);
    void install(SwitchId at, std::uint32_t slot, std::uint32_t rec,
                 int hops);
    /// Floods `slot`'s LSA out of `from` on every live link except the one
    /// it arrived on.
    void flood(SwitchId from, LinkId arrival_link, std::uint32_t slot,
               std::uint32_t rec, int hops);
    void forward(SwitchId from, LinkId arrival_link,
                 const Topology::Neighbor& nb, std::uint32_t slot,
                 std::uint32_t rec, int hops);
    /// A copy reached `dst` over `via`: queue it on dst's CPU.
    void arrive(SwitchId dst, std::uint32_t slot, std::uint32_t rec, int hops,
                LinkId via);

    char& seen_at(SwitchId s, std::uint32_t slot) {
      return seen[std::size_t{s.value()} * num_slots + slot];
    }
    [[nodiscard]] std::span<const char> seen_row(std::uint32_t s) const {
      return {seen.data() + std::size_t{s} * num_slots, num_slots};
    }

    LspSimulation& lsp;
    const Topology& topo;
    const DelayModel& delays;
    Simulator sim;
    ChannelModel channel;
    /// Present when DelayModel::channel.reliable.
    std::optional<ReliableTransport> transport;
    std::vector<CpuQueue> cpus;
    const std::vector<char>& changes;  ///< per switch: needs new routes
    std::uint32_t num_slots;    ///< one slot per (record, origin)
    std::uint32_t num_records;  ///< fault events that flipped a link
    std::uint32_t required;     ///< records with at least one origin
    std::vector<char> seen;          ///< [switch * num_slots + slot]
    std::vector<char> record_heard;  ///< [switch * num_records + record]
    std::vector<std::uint32_t> records_heard;  ///< per switch
    std::vector<SimTime> table_change_time;    ///< per switch, -1: none
    std::vector<int> table_change_hops;        ///< per switch
    FailureReport report;
  };

  DelayModel delays_;
  DestGranularity granularity_;
  RoutingState tables_;
  /// Ground-truth converged routes for overlay(), patched in place by each
  /// run.  Distinct from tables_, which can hold stale rows (missed LSAs,
  /// crashed switches) and so is not a valid incremental base.  Valid only
  /// while converged_synced_; an incomplete bounded run may leave
  /// scheduled fault applications unexecuted, in which case the next run
  /// starts from a fresh full compute.
  RoutingState converged_;
  bool converged_synced_ = false;
  /// Per switch, 1 where tables_' rows equal converged_'s: the switches
  /// whose diff and flip may stop at the rows a run's patch rewrote.
  std::vector<char> in_sync_;
};

}  // namespace aspen
