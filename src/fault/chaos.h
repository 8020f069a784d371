// Chaos campaigns: long, randomized fault schedules against one protocol.
//
// A campaign composes the fault-plane primitives — link failures, switch
// crashes (possibly mid-reaction, discarding the victim's queued work),
// recoveries — over a seeded schedule, with the control plane optionally
// riding a lossy channel (DelayModel::channel) and the protocols' own
// ack/retransmit machinery (channel.reliable).  Two invariants are checked:
//
//   (a) *Physics consistency* while degraded: any flow the protocol's
//       patched tables deliver over the actual (faulted) network must also
//       be deliverable by ground-truth routes computed from that network.
//       The protocol may do worse than physics (stale tables black-hole —
//       counted as `protocol_shortfall`) but never better; a violation
//       means the simulation delivered a packet across a dead region.
//   (b) *Restoration*: after every outstanding fault is recovered, each
//       switch's forwarding table is byte-identical to its pre-campaign
//       table.
//
// Campaigns drive both protocols through the common ProtocolSimulation
// interface; for ANP they enable adjacency_resync by default, because
// faults recover in arbitrary (non-LIFO) order — see docs/CHAOS.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/fault/detector.h"
#include "src/fault/failure_domains.h"
#include "src/proto/experiment.h"
#include "src/proto/protocol.h"
#include "src/routing/updown.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/topo/topology.h"

namespace aspen {

struct ChaosOptions {
  /// Timing plus the channel/retransmit knobs for the whole campaign.
  DelayModel delays;
  /// ANP-only options.  Resync is on: chaos recoveries are not LIFO.
  AnpOptions anp{.notify_children = false, .adjacency_resync = true};
  DestGranularity granularity = DestGranularity::kEdge;
  std::uint64_t seed = 1;
  /// Fault-plane actions before the final unwind.
  int num_events = 50;
  /// P(next action recovers an outstanding fault), given one exists.
  double p_recover = 0.45;
  /// P(next non-recovery action is a switch crash rather than a link cut).
  double p_switch_crash = 0.25;
  /// P(a switch crash is compounded: it lands a few ms into the reaction
  /// to a simultaneous link failure, discarding the victim's queued work).
  double p_crash_mid_reaction = 0.4;
  /// Random (src, dst) flows walked per consistency check.
  std::uint64_t check_flows = 256;
  /// Run invariant (a) after every this-many actions (0 = only at the end
  /// of the faulted phase).
  int check_every = 5;
  std::size_t max_concurrent_switch_crashes = 2;
  std::size_t max_concurrent_link_faults = 6;

  // ---- Gray / flapping degradations -----------------------------------
  /// P(next non-recovery action degrades a healthy link instead of cutting
  /// it).  0 (the default) keeps the action schedule byte-identical to
  /// campaigns that predate link health: the degrade branch then consumes
  /// no RNG draws at all.
  double p_degrade = 0.0;
  /// P(a degradation flaps rather than going gray).
  double p_degrade_flap = 0.35;
  /// Gray loss rate is drawn uniformly from [min, max].
  double gray_loss_min = 0.1;
  double gray_loss_max = 0.5;
  /// Flapping-link waveform.
  SimTime flap_period_ms = 400.0;
  double flap_duty = 0.5;
  std::size_t max_concurrent_degraded = 4;
  /// For each injected gray link, run a side-channel FailureDetector watch
  /// (private overlay, same loss rate) and fold the confirm latency into
  /// ChaosOutcome::detection_ms.
  bool measure_detection_latency = true;
  fault::DetectorOptions detector;

  // ---- Correlated-failure domains --------------------------------------
  /// Optional shared-risk model (not owned; must outlive the campaign).
  /// When set, each link-cut action may instead cut a whole blast radius:
  /// one domain drawn uniformly, every still-up link in it failed in a
  /// single timed schedule (the protocol reacts to the links as one
  /// correlated event).  Recovery stays per-link — repairs are not
  /// correlated.  nullptr (the default) adds no RNG draws, keeping legacy
  /// campaign schedules byte-identical.
  const fault::FailureDomainModel* domains = nullptr;
  /// P(a link-cut action becomes a domain cut), given `domains` is set.
  double p_domain_cut = 0.5;
};

/// One forwarding row (switch, dest) whose entry after the unwind differs
/// from its pre-campaign entry.
struct UnrestoredRow {
  SwitchId sw;
  std::uint64_t dest = 0;
  int before_cost = 0;
  int after_cost = 0;
  std::vector<Topology::Neighbor> before_hops;
  std::vector<Topology::Neighbor> after_hops;
};

struct ChaosOutcome {
  /// Echo of ChaosOptions::seed, so every report names its schedule.
  std::uint64_t seed = 0;

  // ---- What the schedule did ------------------------------------------
  std::uint64_t link_failures = 0;
  std::uint64_t link_recoveries = 0;
  std::uint64_t switch_crashes = 0;
  std::uint64_t switch_recoveries = 0;
  std::uint64_t compound_runs = 0;   ///< crash-mid-reaction composites
  std::uint64_t gray_injected = 0;   ///< links degraded to Gray{loss}
  std::uint64_t flaps_injected = 0;  ///< links degraded to Flapping
  std::uint64_t degradations_cleared = 0;
  std::uint64_t domain_cuts = 0;        ///< correlated blast-radius cuts
  std::uint64_t domain_links_cut = 0;   ///< links those cuts took down
                                        ///< (also counted in link_failures)

  // ---- Aggregated protocol accounting ---------------------------------
  std::uint64_t messages = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t acks = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t channel_dropped = 0;
  /// Of channel_dropped, copies eaten by degraded link health.
  std::uint64_t health_dropped = 0;
  std::uint64_t channel_duplicated = 0;
  std::uint64_t gave_up = 0;
  std::uint64_t stale_switches = 0;  ///< summed over runs (LSP only)
  Summary convergence_ms;            ///< per-run convergence times
  bool all_quiesced = true;          ///< no run hit the event budget

  // ---- Invariant results ----------------------------------------------
  std::uint64_t checks = 0;
  std::uint64_t checked_flows = 0;
  /// Invariant (a) breaches: protocol delivered where ground truth cannot.
  std::uint64_t ground_truth_violations = 0;
  /// Flows physics could deliver but the protocol's tables did not.
  std::uint64_t protocol_shortfall = 0;
  /// Flows both table sets deliver topologically but a gray/flapping link
  /// eats in flight — degradation pain, not an invariant breach (invariant
  /// (a) walks ignore health so gray noise cannot fake a violation).
  std::uint64_t degraded_drops = 0;
  /// Detector confirm latencies for injected gray links (side-channel
  /// watches; see ChaosOptions::measure_detection_latency).
  Summary detection_ms;
  /// Gray injections the side-channel detector failed to confirm.
  std::uint64_t undetected_grays = 0;
  /// Invariant (b): tables byte-identical to pre-campaign after unwind.
  bool tables_restored = false;
  /// When tables_restored is false, the first kMaxUnrestoredRows differing
  /// rows in (switch, dest) order; empty otherwise.
  static constexpr std::size_t kMaxUnrestoredRows = 8;
  std::vector<UnrestoredRow> unrestored_rows;

  // ---- Invariant audits (paranoid mode only) --------------------------
  // Run when contracts::effective_audit_level(delays.audit_level) reaches
  // kParanoid: the topology is audited once up front, forwarding state and
  // protocol bookkeeping at every consistency-check cadence, and the whole
  // stack again after the unwind.  Expensive checks that only hold in
  // settled states (table walks, dead-next-hop scans) are gated on the
  // campaign being crash-free, fully quiesced, and loss-clean so far.
  std::uint64_t audit_checks = 0;      ///< auditor passes executed
  std::uint64_t audit_violations = 0;  ///< findings across every pass
  /// First few violations, as "<code>: <message>" lines.
  std::vector<std::string> audit_messages;
};

namespace fault {

/// A chaos campaign exposed one action at a time, so an external driver
/// (the serve loop, a debugger, a replay harness) can interleave its own
/// events between fault-plane actions without forking the campaign logic.
///
/// Construction performs everything run_chaos_campaign did before its
/// action loop (fresh converged protocol, RNG streams, campaign_start
/// trace, the paranoid up-front topology audit); each advance() performs
/// exactly one loop iteration (one action plus the periodic consistency
/// check); finish() performs the final check, the unwind, and the
/// restoration verdict.  The RNG draw sequence, trace records, and outcome
/// are byte-identical to the legacy single-call loop — run_chaos_campaign
/// is now construct + drain + finish.
class ChaosCampaign {
 public:
  ChaosCampaign(ProtocolKind kind, const Topology& topo,
                const ChaosOptions& options = {});
  ~ChaosCampaign();
  ChaosCampaign(ChaosCampaign&&) noexcept;
  ChaosCampaign& operator=(ChaosCampaign&&) noexcept;

  /// Executes the next fault-plane action (and, on the configured cadence,
  /// the consistency check + audits that follow it).  Returns false — doing
  /// nothing — once every scheduled action has run or finish() was called.
  bool advance();

  /// Final degraded-state check, unwind of every outstanding fault, and
  /// the restoration verdict.  Idempotent; outcome() is final after this.
  void finish();

  /// Campaign accounting so far; final once finish() has run.
  [[nodiscard]] const ChaosOutcome& outcome() const;

  /// The live protocol under test — external drivers read its overlay and
  /// tables to track what the campaign has done to the fabric.
  [[nodiscard]] const ProtocolSimulation& protocol() const;
  [[nodiscard]] const LinkStateOverlay& overlay() const;

  /// Actions executed so far (0 ≤ n ≤ options.num_events).
  [[nodiscard]] int actions_taken() const;
  [[nodiscard]] bool finished() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fault

/// Runs one seeded campaign of `options.num_events` actions plus a full
/// unwind against a fresh protocol instance on `topo`.
[[nodiscard]] ChaosOutcome run_chaos_campaign(ProtocolKind kind,
                                              const Topology& topo,
                                              const ChaosOptions& options = {});

}  // namespace aspen
