#include "src/fault/chaos.h"

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "src/fault/seed.h"
#include "src/obs/obs.h"
#include "src/routing/audit.h"
#include "src/routing/packet_walk.h"
#include "src/routing/reachability.h"
#include "src/topo/audit.h"
#include "src/util/contracts.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace aspen {

namespace {

const obs::Counter kChecks{"chaos.checks"};
const obs::Counter kCampaigns{"chaos.campaigns"};
const obs::Counter kDegradationsCleared{"chaos.degradations_cleared"};
const obs::Counter kFlapsInjected{"chaos.flaps_injected"};
const obs::Counter kGrayInjected{"chaos.gray_injected"};
const obs::Counter kDomainCuts{"chaos.domain_cuts"};
const obs::Counter kDomainLinksCut{"chaos.domain_links_cut"};

void absorb(ChaosOutcome& outcome, const FailureReport& report) {
  outcome.messages += report.messages_sent;
  outcome.retransmits += report.retransmits;
  outcome.acks += report.acks_sent;
  outcome.duplicates_dropped += report.duplicates_dropped;
  outcome.channel_dropped += report.channel_dropped;
  outcome.health_dropped += report.health_dropped;
  outcome.channel_duplicated += report.channel_duplicated;
  outcome.gave_up += report.gave_up;
  outcome.stale_switches += report.stale_switches;
  outcome.all_quiesced = outcome.all_quiesced && report.quiesced;
  outcome.convergence_ms.add(report.convergence_time_ms);
}

/// Ground-truth routes for the current overlay, maintained incrementally
/// across a campaign.  Each consistency check used to recompute the truth
/// tables from scratch; instead the cache diffs the overlay's up/down bits
/// against the snapshot its tables were computed for and patches only the
/// rows those links dirty.  Health changes (gray, flapping) are deliberately
/// invisible here: routing consults only is_up().
struct TruthCache {
  RoutingState truth;
  std::vector<char> up;  ///< is_up() snapshot `truth` reflects
  bool valid = false;
};

/// Brings `cache.truth` in sync with `overlay`, computing from scratch on
/// first use and incrementally afterwards.
void sync_truth(const Topology& topo, const LinkStateOverlay& overlay,
                DestGranularity granularity, TruthCache& cache) {
  const std::uint64_t links = topo.num_links();
  if (!cache.valid) {
    cache.truth = compute_updown_routes(topo, overlay, granularity);
    cache.up.resize(links);
    for (std::uint64_t l = 0; l < links; ++l) {
      cache.up[l] =
          overlay.is_up(LinkId{static_cast<std::uint32_t>(l)}) ? 1 : 0;
    }
    cache.valid = true;
    return;
  }
  std::vector<LinkId> changed;
  for (std::uint64_t l = 0; l < links; ++l) {
    const LinkId link{static_cast<std::uint32_t>(l)};
    const char now = overlay.is_up(link) ? 1 : 0;
    if (cache.up[l] == now) continue;
    cache.up[l] = now;
    changed.push_back(link);
  }
  if (!changed.empty()) {
    recompute_updown_routes(topo, overlay, cache.truth, changed);
  }
}

/// Invariant (a): walk sampled flows with the protocol's tables over the
/// actual network, and with ground-truth tables computed *from* the actual
/// network.  The protocol may fall short of physics, never beat it.
///
/// The invariant walks disable link health: gray loss is probabilistic
/// noise that could otherwise "refute" a topologically sound route.  When
/// degraded links exist, flows that both table sets deliver are re-walked
/// with health applied to count degradation pain (degraded_drops).
void check_consistency(const Topology& topo, const ProtocolSimulation& proto,
                       const ChaosOptions& options, Rng& rng,
                       TruthCache& cache, ChaosOutcome& outcome) {
  const std::uint64_t flows = options.check_flows;
  if (flows == 0 || topo.num_hosts() < 2) return;
  sync_truth(topo, proto.overlay(), options.granularity, cache);
  const TableRouter truth_router(cache.truth);
  const TableRouter proto_router(proto.tables());
  ++outcome.checks;
  obs::count(kChecks);
  const std::uint64_t violations_before =
      outcome.ground_truth_violations + outcome.protocol_shortfall;
  WalkOptions pure;
  pure.apply_health = false;
  // Degraded re-walks: seed the per-flow gray hash off the campaign seed
  // and give the flap phase a pseudo-instant that varies across checks.
  WalkOptions degraded;
  degraded.apply_health = true;
  degraded.health_seed =
      fault::derive_stream_seed(options.seed, fault::kStreamChaosHealth);
  degraded.at_time_ms = static_cast<double>(outcome.checks) * 137.0;
  const bool any_degraded = proto.overlay().num_degraded() > 0;
  for (std::uint64_t f = 0; f < flows; ++f) {
    const HostId src{static_cast<std::uint32_t>(rng.index(
        static_cast<std::size_t>(topo.num_hosts())))};
    HostId dst{static_cast<std::uint32_t>(
        rng.index(static_cast<std::size_t>(topo.num_hosts())))};
    if (dst == src) {
      dst = HostId{static_cast<std::uint32_t>((dst.value() + 1) %
                                              topo.num_hosts())};
    }
    ++outcome.checked_flows;
    const WalkResult via_proto =
        walk_packet(topo, proto_router, proto.overlay(), src, dst, pure);
    const WalkResult via_truth =
        walk_packet(topo, truth_router, proto.overlay(), src, dst, pure);
    if (via_proto.delivered() && !via_truth.delivered()) {
      ++outcome.ground_truth_violations;
    } else if (!via_proto.delivered() && via_truth.delivered()) {
      ++outcome.protocol_shortfall;
    } else if (any_degraded && via_proto.delivered()) {
      degraded.flow_seed = f;
      const WalkResult lossy =
          walk_packet(topo, proto_router, proto.overlay(), src, dst, degraded);
      if (!lossy.delivered()) ++outcome.degraded_drops;
    }
  }
  const bool clean = outcome.ground_truth_violations +
                         outcome.protocol_shortfall ==
                     violations_before;
  obs::trace_event(0.0, obs::TraceKind::kChaosCheck,
                   static_cast<std::uint32_t>(flows), 0, clean ? 1 : 0,
                   "consistency");
}

/// The first `limit` rows, in (switch, dest) order, where `after` differs
/// from `before`.
std::vector<UnrestoredRow> first_changed_rows(const RoutingState& before,
                                              const RoutingState& after,
                                              std::size_t limit) {
  const RoutingTables& a = before.tables;
  const RoutingTables& b = after.tables;
  std::vector<UnrestoredRow> rows;
  for (std::uint64_t s = 0; s < a.size() && rows.size() < limit; ++s) {
    for (std::uint64_t d = 0; d < a.num_dests() && rows.size() < limit; ++d) {
      const RoutingTables::Entry& ea = a.row(s, d);
      const RoutingTables::Entry& eb = b.row(s, d);
      if (RoutingTables::rows_equal(a, ea, b, eb)) continue;
      const std::span<const Topology::Neighbor> ha = a.hops(ea);
      const std::span<const Topology::Neighbor> hb = b.hops(eb);
      rows.push_back({SwitchId{static_cast<std::uint32_t>(s)}, d, ea.cost,
                      eb.cost, {ha.begin(), ha.end()}, {hb.begin(), hb.end()}});
    }
  }
  return rows;
}

/// Folds one auditor pass into the outcome, retaining the first few
/// violation messages for the caller's diagnostics.
void record_audit(ChaosOutcome& outcome, const AuditReport& report) {
  constexpr std::size_t kMaxRetainedMessages = 8;
  ++outcome.audit_checks;
  outcome.audit_violations += report.findings.size();
  for (const AuditFinding& f : report.findings) {
    if (outcome.audit_messages.size() >= kMaxRetainedMessages) break;
    outcome.audit_messages.push_back(std::string(to_cstring(f.code)) + ": " +
                                     f.message);
  }
}

}  // namespace

namespace fault {

/// All campaign state.  Members carry the exact names the single-call loop
/// used as locals so the action logic below is a verbatim transplant — the
/// byte-identity of RNG draws and trace records rests on not touching it.
struct ChaosCampaign::Impl {
  const Topology* topo_;
  ChaosOptions options;
  std::unique_ptr<ProtocolSimulation> proto;
  RoutingState initial;
  Rng rng;
  Rng flow_rng;
  ChaosOutcome outcome;
  TruthCache truth_cache;

  // Campaign-owned outstanding faults.  Links a crash takes down belong to
  // the protocol's crash bookkeeping, not to these lists; a campaign link
  // that is recovered while an endpoint is crashed silently transfers to
  // that crash (the protocol applies the custody rule), so it leaves
  // `down_links` either way.
  std::vector<LinkId> down_links;
  std::vector<SwitchId> crashed;
  // Links currently degraded (gray or flapping) by this campaign.  A
  // degraded link can still be cut or lose an endpoint to a crash — the
  // overlay erases its degradation on fail(), so the list is re-pruned
  // against the overlay after every action.
  std::vector<LinkId> degraded;

  bool paranoid = false;
  int action = 0;
  bool done = false;

  Impl(ProtocolKind kind, const Topology& t, const ChaosOptions& opts)
      : topo_(&t),
        options(opts),
        proto(make_protocol(kind, t, opts.delays, opts.anp, opts.granularity)),
        initial(proto->tables()),
        rng(opts.seed),
        flow_rng(derive_stream_seed(opts.seed, kStreamChaosFlows)) {
    outcome.seed = options.seed;
    obs::count(kCampaigns);
    obs::trace_event(0.0, obs::TraceKind::kChaosPhase, 0, 0,
                     static_cast<std::uint64_t>(options.num_events),
                     "campaign_start");
    paranoid = contracts::effective_audit_level(options.delays.audit_level) >=
               contracts::AuditLevel::kParanoid;
    if (paranoid) {
      record_audit(outcome, topo::audit_tree(*topo_));
    }
  }

  void prune_degraded() {
    std::erase_if(degraded, [&](LinkId l) {
      const LinkHealth h = proto->overlay().health(l).health;
      return h != LinkHealth::kGray && h != LinkHealth::kFlapping;
    });
  }

  // One auditor pass over the forwarding state and protocol bookkeeping.
  // Checks that only hold in settled states — table walks, dead-next-hop
  // scans, the protocols' withdrawal/custody self-audits — are gated: a
  // crashed switch legitimately strands custody links its revived peer
  // still points at, abandoned conversations (gave_up) and stale LSP
  // switches legitimately leave tables behind the physical truth, and an
  // unquiesced run still has detections queued.
  void run_audits(bool unwound) {
    if (!paranoid) return;
    // Audits observe and never emit: their fresh and truth-cache
    // computations would otherwise add routing records to the trace.
    const obs::PauseObs quiet;
    const Topology& topo = *topo_;
    AuditReport report;
    // Health-eaten notifications (gray links under an unreliable channel)
    // can leave tables legitimately stale, so they also unsettle.
    const bool settled = crashed.empty() && outcome.gave_up == 0 &&
                         outcome.stale_switches == 0 && outcome.all_quiesced &&
                         outcome.health_dropped == 0;
    routing::TableAuditOptions table_options;
    table_options.check_walks = settled;
    table_options.check_dead_next_hops = settled;
    table_options.expect_full_reachability =
        unwound && outcome.tables_restored;
    table_options.alive = &proto->plane().alive();
    report.merge(routing::audit_tables(topo, proto->tables(),
                                       proto->overlay(), table_options));
    // The ground-truth cache is itself incrementally maintained state:
    // prove it (tables and digests) against a from-scratch computation.
    sync_truth(topo, proto->overlay(), options.granularity, truth_cache);
    report.merge(routing::audit_incremental(topo, proto->overlay(),
                                            truth_cache.truth));
    if (outcome.all_quiesced) report.merge(proto->audit());
    record_audit(outcome, report);
  }

  [[nodiscard]] std::vector<LinkId> up_candidates() const {
    const Topology& topo = *topo_;
    std::vector<LinkId> up;
    for (Level level = 2; level <= topo.levels(); ++level) {
      for (const LinkId link : topo.links_at_level(level)) {
        if (proto->overlay().is_up(link)) up.push_back(link);
      }
    }
    return up;
  }

  [[nodiscard]] std::vector<SwitchId> alive_candidates() const {
    const Topology& topo = *topo_;
    std::vector<SwitchId> alive;
    for (std::uint32_t s = 0; s < topo.num_switches(); ++s) {
      if (proto->is_alive(SwitchId{s})) alive.push_back(SwitchId{s});
    }
    return alive;
  }

  /// One action-loop iteration.  Early returns mirror the loop's `continue`
  /// statements exactly: they skip the prune + periodic check epilogue.
  void step() {
    const Topology& topo = *topo_;
    const std::size_t outstanding =
        down_links.size() + crashed.size() + degraded.size();
    const bool want_recover =
        outstanding > 0 &&
        (rng.chance(options.p_recover) ||
         (down_links.size() >= options.max_concurrent_link_faults &&
          crashed.size() >= options.max_concurrent_switch_crashes &&
          (options.p_degrade <= 0 ||
           degraded.size() >= options.max_concurrent_degraded)));

    if (want_recover) {
      const std::size_t pick = rng.index(outstanding);
      if (pick < down_links.size()) {
        const LinkId link = down_links[pick];
        down_links.erase(down_links.begin() +
                         static_cast<std::ptrdiff_t>(pick));
        absorb(outcome, proto->simulate_link_recovery(link));
        ++outcome.link_recoveries;
      } else if (pick < down_links.size() + crashed.size()) {
        const std::size_t at = pick - down_links.size();
        const SwitchId victim = crashed[at];
        crashed.erase(crashed.begin() + static_cast<std::ptrdiff_t>(at));
        absorb(outcome, proto->simulate_switch_recovery(victim));
        ++outcome.switch_recoveries;
      } else {
        // Heal a degradation: routing never reacted to it (gray is
        // invisible, flapping is a physics waveform), so no protocol run —
        // the link simply stops misbehaving.
        const std::size_t at = pick - down_links.size() - crashed.size();
        const LinkId link = degraded[at];
        degraded.erase(degraded.begin() + static_cast<std::ptrdiff_t>(at));
        if (proto->overlay_mut().clear_degradation(link)) {
          ++outcome.degradations_cleared;
          obs::count(kDegradationsCleared);
          obs::trace_event(0.0, obs::TraceKind::kLinkRestore, link.value(), 0,
                           static_cast<std::uint64_t>(action), "heal");
        }
      }
    } else if (options.p_degrade > 0 &&
               degraded.size() < options.max_concurrent_degraded &&
               rng.chance(options.p_degrade)) {
      std::vector<LinkId> up = up_candidates();
      std::erase_if(up, [&](LinkId l) {
        return proto->overlay().health(l).health != LinkHealth::kUp;
      });
      if (up.empty()) return;
      const LinkId link = up[rng.index(up.size())];
      if (rng.chance(options.p_degrade_flap)) {
        proto->overlay_mut().set_flapping(link, options.flap_period_ms,
                                          options.flap_duty);
        ++outcome.flaps_injected;
        obs::count(kFlapsInjected);
        obs::trace_event(0.0, obs::TraceKind::kLinkDegrade, link.value(), 0,
                         static_cast<std::uint64_t>(action), "flap");
      } else {
        const double loss =
            options.gray_loss_min +
            rng.real() * (options.gray_loss_max - options.gray_loss_min);
        proto->overlay_mut().set_gray(link, loss);
        ++outcome.gray_injected;
        obs::count(kGrayInjected);
        obs::trace_event(0.0, obs::TraceKind::kLinkDegrade, link.value(), 0,
                         static_cast<std::uint64_t>(action), "gray");
        if (options.measure_detection_latency) {
          // Side-channel watch on a private overlay: how long would a
          // detector take to confirm this gray link?  Seed varies per link
          // so campaigns do not replay one probe schedule.
          fault::DetectorOptions watch = options.detector;
          watch.seed = fault::derive_stream_seed(
              fault::derive_stream_seed(options.detector.seed,
                                        fault::kStreamDetectorWatch),
              link.value());
          LinkHealthState fault_state;
          fault_state.health = LinkHealth::kGray;
          fault_state.loss_rate = loss;
          const fault::DetectionOutcome det =
              fault::measure_detection(topo, link, fault_state, watch);
          if (det.confirmed()) {
            outcome.detection_ms.add(det.confirm_latency_ms);
          } else {
            ++outcome.undetected_grays;
          }
        }
      }
      degraded.push_back(link);
    } else if (crashed.size() < options.max_concurrent_switch_crashes &&
               rng.chance(options.p_switch_crash)) {
      const std::vector<SwitchId> alive = alive_candidates();
      if (alive.empty()) return;
      const SwitchId victim = alive[rng.index(alive.size())];
      if (rng.chance(options.p_crash_mid_reaction) &&
          down_links.size() < options.max_concurrent_link_faults) {
        // Crash-while-reacting: a link dies, and a few milliseconds into
        // the protocol's reaction the switch goes with it, discarding its
        // queued work mid-flight.
        std::vector<LinkId> up = up_candidates();
        std::erase_if(up, [&](LinkId l) {
          const Topology::LinkRec& rec = topo.link(l);
          return rec.upper == topo.node_of(victim) ||
                 rec.lower == topo.node_of(victim);
        });
        if (!up.empty()) {
          const LinkId link = up[rng.index(up.size())];
          const SimTime crash_at = 1.0 + rng.real() * 29.0;  // 1–30 ms in
          const std::array<TimedFault, 2> schedule{
              TimedFault::link_fail(link),
              TimedFault::switch_fail(victim, crash_at)};
          absorb(outcome, proto->simulate_timed_events(schedule));
          down_links.push_back(link);
          ++outcome.link_failures;
          ++outcome.compound_runs;
        } else {
          absorb(outcome, proto->simulate_switch_failure(victim));
        }
      } else {
        absorb(outcome, proto->simulate_switch_failure(victim));
      }
      crashed.push_back(victim);
      ++outcome.switch_crashes;
    } else if (down_links.size() < options.max_concurrent_link_faults) {
      if (options.domains != nullptr && rng.chance(options.p_domain_cut)) {
        // Correlated cut: one blast radius, every still-up link in it
        // failed as a single timed event so the protocol reacts to the
        // correlated loss at once.  The concurrency cap admits the whole
        // domain — blast radii are atomic — so it may overshoot by the
        // domain size; recovery later is per-link like any other fault.
        const fault::FailureDomain& domain =
            options.domains->domain(options.domains->draw(rng));
        std::vector<TimedFault> schedule;
        for (const LinkId link : domain.links) {
          if (proto->overlay().is_up(link)) {
            schedule.push_back(TimedFault::link_fail(link));
          }
        }
        if (schedule.empty()) return;
        absorb(outcome, proto->simulate_timed_events(schedule));
        for (const TimedFault& fault : schedule) {
          down_links.push_back(fault.link);
        }
        outcome.link_failures += schedule.size();
        outcome.domain_links_cut += schedule.size();
        ++outcome.domain_cuts;
        obs::count(kDomainCuts);
        obs::count(kDomainLinksCut, schedule.size());
      } else {
        const std::vector<LinkId> up = up_candidates();
        if (up.empty()) return;
        const LinkId link = up[rng.index(up.size())];
        absorb(outcome, proto->simulate_link_failure(link));
        down_links.push_back(link);
        ++outcome.link_failures;
      }
    }

    prune_degraded();
    if (options.check_every > 0 && (action + 1) % options.check_every == 0) {
      check_consistency(topo, *proto, options, flow_rng, truth_cache, outcome);
      run_audits(/*unwound=*/false);
    }
  }

  void finish_impl() {
    if (done) return;
    done = true;
    const Topology& topo = *topo_;

    // One last degraded-state check before unwinding.
    check_consistency(topo, *proto, options, flow_rng, truth_cache, outcome);
    run_audits(/*unwound=*/false);

    // ---- Unwind: clear degradations, revive every switch, then raise every
    // campaign link.  Degradations go first so the restoration check runs on
    // clean physics.  Order is otherwise deliberately arbitrary relative to
    // the failure order — restoration must not depend on LIFO unwinding.
    obs::trace_event(0.0, obs::TraceKind::kChaosPhase, 0, 0,
                     down_links.size() + crashed.size() + degraded.size(),
                     "unwind");
    for (const LinkId link : degraded) {
      if (proto->overlay_mut().clear_degradation(link)) {
        ++outcome.degradations_cleared;
        obs::count(kDegradationsCleared);
        obs::trace_event(0.0, obs::TraceKind::kLinkRestore, link.value(), 0, 0,
                         "unwind");
      }
    }
    degraded.clear();
    for (const SwitchId victim : crashed) {
      absorb(outcome, proto->simulate_switch_recovery(victim));
      ++outcome.switch_recoveries;
    }
    crashed.clear();
    for (const LinkId link : down_links) {
      if (proto->overlay().is_up(link)) continue;  // came back with a crash
      absorb(outcome, proto->simulate_link_recovery(link));
      ++outcome.link_recoveries;
    }
    down_links.clear();

    // Invariant (b) via digests: O(switches) word compares instead of deep
    // table comparison.  A digest mismatch proves the tables differ;
    // equality is probabilistic (2^-64 per table), so paranoid mode cross-
    // checks the verdict byte-for-byte and flags any disagreement as drift —
    // that would mean some mutation bypassed digest maintenance.
    const RoutingState& final_tables = proto->tables();
    if (initial.has_digests() && final_tables.has_digests()) {
      outcome.tables_restored = tables_match_by_digest(initial, final_tables);
      if (paranoid) {
        const bool deep_match = initial.tables == final_tables.tables;
        if (deep_match != outcome.tables_restored) {
          AuditReport drift;
          drift.add(AuditCode::kIncrementalDrift,
                    "restoration digest verdict disagrees with byte-for-byte "
                    "table comparison");
          record_audit(outcome, drift);
          outcome.tables_restored = deep_match;
        }
      }
    } else {
      outcome.tables_restored =
          switches_with_changed_tables(initial, final_tables) == 0;
    }
    if (!outcome.tables_restored) {
      outcome.unrestored_rows = first_changed_rows(
          initial, final_tables, ChaosOutcome::kMaxUnrestoredRows);
    }
    run_audits(/*unwound=*/true);
    obs::trace_event(0.0, obs::TraceKind::kChaosPhase, 0, 0,
                     outcome.tables_restored ? 1u : 0u, "campaign_end");
  }
};

ChaosCampaign::ChaosCampaign(ProtocolKind kind, const Topology& topo,
                             const ChaosOptions& options) {
  ASPEN_REQUIRE(options.num_events >= 0, "negative event count");
  for (const double p :
       {options.p_recover, options.p_switch_crash, options.p_crash_mid_reaction,
        options.p_degrade, options.p_degrade_flap, options.p_domain_cut}) {
    ASPEN_REQUIRE(is_probability(p),
                  "chaos action probabilities must be in [0, 1], got ", p);
  }
  impl_ = std::make_unique<Impl>(kind, topo, options);
}

ChaosCampaign::~ChaosCampaign() = default;
ChaosCampaign::ChaosCampaign(ChaosCampaign&&) noexcept = default;
ChaosCampaign& ChaosCampaign::operator=(ChaosCampaign&&) noexcept = default;

bool ChaosCampaign::advance() {
  if (impl_->done || impl_->action >= impl_->options.num_events) return false;
  impl_->step();
  ++impl_->action;
  return true;
}

void ChaosCampaign::finish() { impl_->finish_impl(); }

const ChaosOutcome& ChaosCampaign::outcome() const { return impl_->outcome; }

const ProtocolSimulation& ChaosCampaign::protocol() const {
  return *impl_->proto;
}

const LinkStateOverlay& ChaosCampaign::overlay() const {
  return impl_->proto->overlay();
}

int ChaosCampaign::actions_taken() const { return impl_->action; }

bool ChaosCampaign::finished() const { return impl_->done; }

}  // namespace fault

ChaosOutcome run_chaos_campaign(ProtocolKind kind, const Topology& topo,
                                const ChaosOptions& options) {
  fault::ChaosCampaign campaign(kind, topo, options);
  while (campaign.advance()) {
  }
  campaign.finish();
  return campaign.outcome();
}

}  // namespace aspen
