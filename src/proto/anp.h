// ANP — the Aspen Reaction and Notification Protocol (§6).
//
// On the failure of a downward link from L_i switch s to t:
//   * If s retains another live link to t's pod (c_i > 1), s reroutes
//     locally and sends nothing (case 1).
//   * Otherwise s withdraws the dead routes and notifies its parents of the
//     set of destinations it can no longer reach.  An ancestor that still
//     has alternate next hops for those destinations absorbs the
//     notification after patching its table (cases 2 and 3); an ancestor
//     left with none forwards the notification to *its* parents.
// Upward-link failures never generate notifications: the switch below the
// failure prunes the dead uplink and keeps climbing via any other port.
//
// Notifications carry destination sets keyed by edge switch (the same
// prefix granularity as the forwarding tables).  Each switch keeps a
// withdrawal log — which next hops it removed, per link and per notifying
// neighbor, and which destinations it announced lost — so that link
// recovery (§6's "the process is similar for link recovery") replays the
// exact inverse: restore logged entries, then propagate recovery notices
// along the paths the loss notices took.
//
// ## The intra-pod gap, and the extended mode
//
// Reproducing §6 literally exposes a gap the paper does not discuss: with
// upward-only notifications, only the switches at the absorbing level L_f
// learn to steer around the dead region — so a flow is guaranteed only if
// its up*/down* apex reaches L_f.  A flow with a lower apex (intra-pod
// traffic, or traffic whose climb tops out between the failure and L_f)
// can still hash its blind up-choice into a switch whose routes died.
// Global re-convergence (LSP) repairs those flows; upward-only ANP cannot
// (tests/test_section7_property.cpp pins down the exact boundary).
// AnpOptions::notify_children (off by default, to match the paper) extends
// the protocol symmetrically: a switch whose entry for some destinations
// became empty also tells the switches *below* it to stop climbing through
// it.  With the extension, ANP restores all-pairs connectivity whenever the
// FTV covers the failure level; the ablation benchmark quantifies the extra
// messages this costs.
//
// ## The unreliable control plane
//
// The paper assumes every notification is delivered exactly once, in
// order.  This implementation does not: notifications ride a seeded lossy
// ChannelModel (DelayModel::channel), and when `channel.reliable` is set
// each notification gets a sequence id, receiver-side duplicate
// suppression, acks, and timeout-driven retransmission with exponential
// backoff and a retry cap (src/sim/channel.h; docs/CHAOS.md).  Channel
// jitter can reorder two notices from one sender, so each notice also
// carries a per-sender sequence number, and a receiver applies it to a
// destination only if it is newer than the last one it applied from that
// sender for that destination.  Switches can also *crash* — all incident
// links fail atomically (FaultPlane, src/proto/fault_plane.h), queued work
// is discarded, and in-flight conversations with the dead switch run out
// their retries — possibly mid-reaction (simulate_timed_events composes,
// e.g., a link failure at t=0 with a crash at t=5ms).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "src/proto/protocol.h"
#include "src/proto/report.h"
#include "src/routing/updown.h"
#include "src/sim/channel.h"
#include "src/sim/simulator.h"
#include "src/topo/link_state.h"
#include "src/topo/topology.h"

namespace aspen {

namespace proto {
struct AnpAuditPeer;  // test-only corruption hooks, src/proto/audit.h
}

struct AnpOptions {
  /// Also send loss/recovery notices downward when a switch's entry for a
  /// destination empties (extension; see header comment).
  bool notify_children = false;
  /// On link recovery each endpoint tells its peer which destinations it
  /// currently considers lost (and implicitly which it does not), so the
  /// peer can repair a withdrawal log that went stale while the adjacency
  /// — or either switch — was down and notices could not be delivered.
  /// Off by default: the paper's ANP has no such exchange, and it costs
  /// extra messages on every recovery.  Chaos campaigns need it: they
  /// recover faults in arbitrary (non-LIFO) order.
  bool adjacency_resync = false;
};

class AnpSimulation final : public ProtocolSimulation {
 public:
  explicit AnpSimulation(const Topology& topo, DelayModel delays = {},
                         AnpOptions options = {},
                         DestGranularity granularity = DestGranularity::kEdge);

  /// One reaction over a compound, timed schedule — e.g. a switch dying
  /// 5 ms into the reaction to a link failure, discarding its queued work.
  /// Single link events (simulate_link_failure …) run ANP until quiescent;
  /// a crashed switch neither processes nor emits protocol messages.
  FailureReport simulate_timed_events(
      std::span<const TimedFault> events) override;

  /// Current forwarding tables, as patched by ANP so far.
  [[nodiscard]] const RoutingState& tables() const override { return tables_; }
  [[nodiscard]] const AnpOptions& options() const { return options_; }

  /// Withdrawal-log and announced-lost invariants (see src/proto/audit.h)
  /// plus the fault plane's custody audit.  Valid at quiescent phase
  /// boundaries.
  [[nodiscard]] AuditReport audit() const override;

 private:
  friend struct proto::AnpAuditPeer;

  using DestIndex = std::uint64_t;

  /// Per-switch protocol state.
  struct SwitchState {
    /// Next hops removed on local detection, per failed link.
    std::map<std::uint32_t, std::map<DestIndex, Topology::Neighbor>>
        removed_by_link;
    /// Next hops removed on notification, per notifying neighbor switch.
    std::map<std::uint32_t,
             std::map<DestIndex, std::vector<Topology::Neighbor>>>
        removed_by_neighbor;
    /// Destinations this switch announced as lost to its neighbors.
    std::vector<char> announced_lost;  // indexed by dest edge
  };

  struct RunContext {
    Simulator sim;
    ChannelModel channel;
    /// Present when DelayModel::channel.reliable; holds pointers into this
    /// struct, so a RunContext must never be moved after init_context().
    std::optional<ReliableTransport> transport;
    std::vector<CpuQueue> cpus;
    std::vector<char> informed;      // per switch: processed an update
    std::vector<char> reacted;       // per switch: table changed this run
    std::vector<SimTime> react_time; // completion time of last change
    std::vector<int> react_hops;     // farthest hops of a change
    FailureReport report;
    /// Notice sequence numbers.  One counter per run numbers every
    /// sender's notices in send order.
    std::uint64_t notice_seq = 0;
    /// Sequence number of the newest notice applied per (receiver, sender,
    /// dest).  Notices never outlive their run, so neither does this.
    std::map<std::tuple<std::uint32_t, std::uint32_t, DestIndex>,
             std::uint64_t>
        newest;
    /// Every notice's destination list, stored once per run; closures and
    /// handlers refer to a list by its index.
    std::vector<std::vector<DestIndex>> notices;
  };

  void init_context(RunContext& ctx);
  /// Applies `ev` to the fault plane and schedules detections for the
  /// links it flipped.
  void apply_fault(RunContext& ctx, const TimedFault& ev);
  /// Schedules detect_failure/detect_recovery at each live switch endpoint
  /// of `link`, `detection` ms out (guarded again at fire time — the
  /// endpoint may crash in between).
  void schedule_detections(RunContext& ctx, LinkId link, bool failure);
  void mark_informed(RunContext& ctx, SwitchId s);
  void mark_reaction(RunContext& ctx, SwitchId s, SimTime when, int hops);
  /// Sends {dests, lost} from `from` to every live parent — and, in
  /// notify_children mode, every live switch child — except `exclude`.
  void send_notification(RunContext& ctx, SwitchId from, NodeId exclude,
                         std::vector<DestIndex> dests, bool lost, int hops);
  /// Stores a notice's destination list for the rest of the run and
  /// returns its index in RunContext::notices.
  static std::uint32_t store_notice(RunContext& ctx,
                                    std::vector<DestIndex> dests);
  /// One notification of stored list `notice` over one adjacency, via the
  /// transport when reliable.
  void transmit_notification(RunContext& ctx, SwitchId from,
                             const Topology::Neighbor& nb,
                             std::uint32_t notice, bool lost, int hops);
  /// Adjacency (re-)establishment summary: see AnpOptions::adjacency_resync.
  void send_resync(RunContext& ctx, SwitchId from,
                   const Topology::Neighbor& peer);
  void handle_notification(RunContext& ctx, SwitchId at, SwitchId neighbor,
                           std::uint64_t seq, std::uint32_t notice, bool lost,
                           int hops);
  void detect_failure(RunContext& ctx, SwitchId s, LinkId link);
  void detect_recovery(RunContext& ctx, SwitchId s, LinkId link);
  FailureReport finish(RunContext& ctx);

  DelayModel delays_;
  AnpOptions options_;
  RoutingState tables_;
  std::vector<SwitchState> state_;  // per switch
};

}  // namespace aspen
