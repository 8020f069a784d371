#include "src/fault/detector.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "src/obs/obs.h"
#include "src/util/status.h"

namespace aspen::fault {

namespace {

const obs::Counter kProbesSent{"detector.probes_sent"};
const obs::Counter kProbesLost{"detector.probes_lost"};
const obs::Counter kEvents{"detector.events"};

// Floating-point slack for penalty comparisons after long decay chains.
constexpr double kPenaltyTolerance = 1e-6;

}  // namespace

const char* to_cstring(DetectionKind kind) {
  switch (kind) {
    case DetectionKind::kSuspected: return "suspected";
    case DetectionKind::kConfirmedDown: return "confirmed-down";
    case DetectionKind::kConfirmedUp: return "confirmed-up";
    case DetectionKind::kSuppressed: return "suppressed";
    case DetectionKind::kReused: return "reused";
    case DetectionKind::kNotified: return "notified";
  }
  return "?";
}

FailureDetector::FailureDetector(const Topology& topo,
                                 const LinkStateOverlay& overlay,
                                 Simulator& sim, DetectorOptions options)
    : topo_(&topo),
      overlay_(&overlay),
      sim_(&sim),
      options_(options),
      rng_(options.seed) {
  ASPEN_REQUIRE(options_.probe_interval_ms > 0.0,
                "probe interval must be positive");
  ASPEN_REQUIRE(options_.window >= 1, "window must hold at least one probe");
  ASPEN_REQUIRE(options_.loss_threshold >= 1 &&
                    options_.loss_threshold <= options_.window,
                "loss threshold must fit the window");
  ASPEN_REQUIRE(options_.suspect_threshold >= 1 &&
                    options_.suspect_threshold <= options_.loss_threshold,
                "suspect threshold cannot exceed the confirm threshold");
  ASPEN_REQUIRE(options_.recovery_threshold >= 1,
                "recovery threshold must be positive");
  if (options_.damping.enabled) {
    const DampingOptions& d = options_.damping;
    ASPEN_REQUIRE(d.penalty > 0.0 && d.half_life_ms > 0.0 &&
                      d.hold_down_ms >= 0.0,
                  "damping penalty/half-life must be positive");
    ASPEN_REQUIRE(d.reuse_threshold > 0.0 &&
                      d.reuse_threshold < d.suppress_threshold,
                  "reuse threshold must sit below suppress");
  }
}

void FailureDetector::monitor(LinkId link) {
  ASPEN_REQUIRE(link.valid() &&
                    link.value() < topo_->num_links(),
                "monitor() needs a real link");
  if (watches_.count(link.value()) > 0) return;  // already monitored
  watches_[link.value()] = LinkWatch{};
  const Topology::LinkRec& rec = topo_->link(link);
  start_session(link, topo_->switch_of(rec.upper));
  if (topo_->is_switch_node(rec.lower)) {
    start_session(link, topo_->switch_of(rec.lower));
  }
}

void FailureDetector::monitor_all() {
  for (std::uint32_t id = 0; id < topo_->num_links(); ++id) {
    const LinkId link{id};
    if (topo_->is_switch_node(topo_->link(link).lower)) monitor(link);
  }
}

void FailureDetector::start_session(LinkId link, SwitchId observer) {
  Session s;
  s.link = link;
  s.observer = observer;
  s.window.assign(static_cast<std::size_t>(options_.window), 0);
  sessions_.push_back(std::move(s));
  // BFD endpoints free-run: stagger the first probe uniformly inside one
  // interval so the two ends of a link never probe in lockstep.
  const SimTime offset = rng_.real() * options_.probe_interval_ms;
  schedule_probe(sessions_.size() - 1, offset);
}

void FailureDetector::schedule_probe(std::size_t session_index,
                                     SimTime delay) {
  if (sim_->now() + delay > horizon_ms_) return;
  sim_->schedule(delay, [this, session_index] { probe(session_index); });
}

void FailureDetector::probe(std::size_t session_index) {
  Session& s = sessions_[session_index];
  ++stats_.probes_sent;
  obs::count(kProbesSent);
  const double loss = overlay_->loss_now(s.link, sim_->now());
  const bool lost = loss >= 1.0 || (loss > 0.0 && rng_.chance(loss));
  if (lost) {
    ++stats_.probes_lost;
    obs::count(kProbesLost);
  }

  // Slide the N-of-M window.
  const std::size_t pos = static_cast<std::size_t>(s.window_pos);
  if (s.window_fill == options_.window) {
    s.losses_in_window -= s.window[pos];
  } else {
    ++s.window_fill;
  }
  s.window[pos] = lost ? 1 : 0;
  if (lost) ++s.losses_in_window;
  s.window_pos = (s.window_pos + 1) % options_.window;
  s.consecutive_ok = lost ? 0 : s.consecutive_ok + 1;

  if (!s.down) {
    if (s.losses_in_window >= options_.loss_threshold) {
      session_transition(s, /*down=*/true);
    } else if (!s.suspected &&
               s.losses_in_window >= options_.suspect_threshold) {
      s.suspected = true;
      ++stats_.suspects;
      record(s.link, s.observer, DetectionKind::kSuspected);
    } else if (s.suspected && s.losses_in_window == 0) {
      s.suspected = false;  // episode drained out of the window
    }
  } else if (s.consecutive_ok >= options_.recovery_threshold) {
    session_transition(s, /*down=*/false);
  }

  schedule_probe(session_index, options_.probe_interval_ms);
}

void FailureDetector::session_transition(Session& session, bool down) {
  session.down = down;
  session.suspected = false;
  session.window.assign(session.window.size(), 0);
  session.window_fill = 0;
  session.window_pos = 0;
  session.losses_in_window = 0;
  session.consecutive_ok = 0;
  on_confirm(session.link, down);
}

void FailureDetector::on_confirm(LinkId link, bool down) {
  LinkWatch& watch = watches_.at(link.value());
  // Two sessions watch most links; the first to flip the verdict wins and
  // the second's agreement is not a new transition.
  if (watch.confirmed_down == down) return;
  watch.confirmed_down = down;
  if (down) {
    ++stats_.confirms_down;
    if (overlay_->health(link).health == LinkHealth::kUp) {
      ++stats_.false_confirms;
    }
  } else {
    ++stats_.confirms_up;
  }
  record(link, SwitchId::invalid(),
         down ? DetectionKind::kConfirmedDown : DetectionKind::kConfirmedUp);

  const DampingOptions& damping = options_.damping;
  if (!damping.enabled) {
    maybe_notify(link, watch);
    return;
  }
  decay(watch);
  watch.penalty += damping.penalty;
  if (!watch.suppressed && watch.penalty >= damping.suppress_threshold) {
    watch.suppressed = true;
    ++watch.suppression_cycles;
    record(link, SwitchId::invalid(), DetectionKind::kSuppressed);
    schedule_reuse_check(link);
  }
  if (watch.suppressed) {
    ++stats_.suppressed_transitions;
    return;
  }
  maybe_notify(link, watch);
}

void FailureDetector::maybe_notify(LinkId link, LinkWatch& watch) {
  if (watch.reported_down == watch.confirmed_down) return;
  const DampingOptions& damping = options_.damping;
  if (damping.enabled && watch.ever_notified) {
    const SimTime earliest = watch.last_notify_ms + damping.hold_down_ms;
    if (sim_->now() < earliest) {
      // Hold-down: coalesce into one deferred report.  Re-evaluated at
      // fire time — transitions that cancel out report nothing at all.
      if (watch.notify_pending) return;
      watch.notify_pending = true;
      sim_->schedule_at(earliest, [this, link] {
        LinkWatch& later = watches_.at(link.value());
        later.notify_pending = false;
        if (later.suppressed) return;
        if (later.reported_down != later.confirmed_down) {
          notify(link, later);
        }
      });
      return;
    }
  }
  notify(link, watch);
}

void FailureDetector::notify(LinkId link, LinkWatch& watch) {
  if (watch.ever_notified) {
    watch.min_notify_gap_ms = std::min(
        watch.min_notify_gap_ms, sim_->now() - watch.last_notify_ms);
  }
  watch.reported_down = watch.confirmed_down;
  watch.last_notify_ms = sim_->now();
  watch.ever_notified = true;
  ++watch.notifications;
  ++stats_.notifications;
  record(link, SwitchId::invalid(), DetectionKind::kNotified);
  if (sink_) sink_(link, watch.reported_down, sim_->now());
}

void FailureDetector::decay(LinkWatch& watch) const {
  const SimTime now = sim_->now();
  if (now > watch.penalty_at && watch.penalty > 0.0) {
    watch.penalty *= std::exp2(-(now - watch.penalty_at) /
                               options_.damping.half_life_ms);
  }
  watch.penalty_at = now;
}

void FailureDetector::schedule_reuse_check(LinkId link) {
  LinkWatch& watch = watches_.at(link.value());
  if (watch.reuse_check_pending) return;
  decay(watch);
  const DampingOptions& damping = options_.damping;
  SimTime wait = 0.0;
  if (watch.penalty > damping.reuse_threshold) {
    wait = damping.half_life_ms *
           std::log2(watch.penalty / damping.reuse_threshold);
  }
  watch.reuse_check_pending = true;
  sim_->schedule(wait + kPenaltyTolerance, [this, link] {
    LinkWatch& later = watches_.at(link.value());
    later.reuse_check_pending = false;
    if (!later.suppressed) return;
    decay(later);
    if (later.penalty <= options_.damping.reuse_threshold +
                             kPenaltyTolerance) {
      later.suppressed = false;
      record(link, SwitchId::invalid(), DetectionKind::kReused);
      // Reconcile: if transitions happened while we were suppressed, the
      // sink's picture is stale — bring it back in line.
      maybe_notify(link, later);
    } else {
      // Fresh transitions pushed the penalty back up while suppressed;
      // keep waiting for the (re-computed) decay crossing.
      schedule_reuse_check(link);
    }
  });
}

void FailureDetector::record(LinkId link, SwitchId observer,
                             DetectionKind kind) {
  obs::count(kEvents);
  obs::trace_event(sim_->now(), obs::TraceKind::kDetect, link.value(),
                   observer.valid() ? observer.value() : 0,
                   static_cast<std::uint64_t>(kind), to_cstring(kind));
  events_.push_back(DetectionEvent{sim_->now(), link, observer, kind});
}

SimTime FailureDetector::first_confirm_down(LinkId link) const {
  for (const DetectionEvent& e : events_) {
    if (e.link == link && e.kind == DetectionKind::kConfirmedDown) {
      return e.at_ms;
    }
  }
  return -1.0;
}

SimTime FailureDetector::first_suspect(LinkId link) const {
  for (const DetectionEvent& e : events_) {
    if (e.link == link && e.kind == DetectionKind::kSuspected) return e.at_ms;
  }
  return -1.0;
}

FailureDetector::LinkDampingView FailureDetector::damping_view(
    LinkId link) const {
  const auto it = watches_.find(link.value());
  ASPEN_REQUIRE(it != watches_.end(), "link is not monitored");
  const LinkWatch& watch = it->second;
  LinkDampingView view;
  view.penalty = watch.penalty;
  if (sim_->now() > watch.penalty_at && watch.penalty > 0.0) {
    view.penalty *= std::exp2(-(sim_->now() - watch.penalty_at) /
                              options_.damping.half_life_ms);
  }
  view.suppressed = watch.suppressed;
  view.confirmed_down = watch.confirmed_down;
  view.reported_down = watch.reported_down;
  view.notifications = watch.notifications;
  view.suppression_cycles = watch.suppression_cycles;
  view.notify_pending = watch.notify_pending;
  view.min_notify_gap_ms = watch.min_notify_gap_ms;
  return view;
}

std::vector<LinkId> FailureDetector::monitored_links() const {
  std::vector<LinkId> links;
  links.reserve(watches_.size());
  for (const auto& [id, watch] : watches_) links.push_back(LinkId{id});
  return links;
}

int FailureDetector::notification_bound(LinkId link) const {
  const auto it = watches_.find(link.value());
  ASPEN_REQUIRE(it != watches_.end(), "link is not monitored");
  return (it->second.suppression_cycles + 1) *
         options_.damping.max_notifications_per_cycle();
}

AuditReport audit_detector(const FailureDetector& detector) {
  AuditReport report;
  const DampingOptions& damping = detector.options().damping;
  for (const LinkId link : detector.monitored_links()) {
    const FailureDetector::LinkDampingView view = detector.damping_view(link);
    if (damping.enabled) {
      if (view.suppressed &&
          view.penalty < damping.reuse_threshold - kPenaltyTolerance) {
        std::ostringstream os;
        os << "link " << link.value() << " suppressed with penalty "
           << view.penalty << " below reuse threshold "
           << damping.reuse_threshold;
        report.add(AuditCode::kDetectorSuppression, os.str());
      }
      if (!view.suppressed &&
          view.penalty >= damping.suppress_threshold + kPenaltyTolerance) {
        std::ostringstream os;
        os << "link " << link.value() << " unsuppressed with penalty "
           << view.penalty << " beyond suppress threshold "
           << damping.suppress_threshold;
        report.add(AuditCode::kDetectorSuppression, os.str());
      }
      // The rate bound damping must guarantee unconditionally: no two
      // reports for one link closer than the hold-down window.
      if (view.notifications >= 2 &&
          view.min_notify_gap_ms < damping.hold_down_ms - kPenaltyTolerance) {
        std::ostringstream os;
        os << "link " << link.value() << " reported twice within "
           << view.min_notify_gap_ms << " ms (hold-down "
           << damping.hold_down_ms << " ms)";
        report.add(AuditCode::kDetectorOscillation, os.str());
      }
    }
    if (!view.suppressed && !view.notify_pending &&
        view.reported_down != view.confirmed_down) {
      std::ostringstream os;
      os << "link " << link.value() << " reported "
         << (view.reported_down ? "down" : "up") << " but confirmed "
         << (view.confirmed_down ? "down" : "up")
         << " with no suppression or pending report to explain it";
      report.add(AuditCode::kDetectorSession, os.str());
    }
  }
  return report;
}

void DetectorAuditPeer::corrupt_suppression(FailureDetector& d, LinkId link) {
  FailureDetector::LinkWatch& watch = d.watches_.at(link.value());
  watch.suppressed = true;
  watch.penalty = 0.0;
  watch.penalty_at = d.sim_->now();
}

void DetectorAuditPeer::corrupt_notification_count(FailureDetector& d,
                                                   LinkId link) {
  FailureDetector::LinkWatch& watch = d.watches_.at(link.value());
  watch.notifications = std::max(watch.notifications, 2);
  watch.min_notify_gap_ms = d.options_.damping.hold_down_ms * 0.25;
}

void DetectorAuditPeer::corrupt_reported_state(FailureDetector& d,
                                               LinkId link) {
  FailureDetector::LinkWatch& watch = d.watches_.at(link.value());
  watch.suppressed = false;
  watch.notify_pending = false;
  watch.reported_down = !watch.confirmed_down;
}

// ---- Drivers ----------------------------------------------------------

DetectionOutcome measure_detection(const Topology& topo, LinkId link,
                                   const LinkHealthState& fault,
                                   const DetectorOptions& options,
                                   SimTime horizon_ms) {
  Simulator sim;
  LinkStateOverlay overlay(topo);
  switch (fault.health) {
    case LinkHealth::kUp:
      break;  // clean watch: measures the false-alarm horizon
    case LinkHealth::kGray:
      overlay.set_gray(link, fault.loss_rate);
      break;
    case LinkHealth::kFlapping:
      overlay.set_flapping(link, fault.period_ms, fault.duty);
      break;
    case LinkHealth::kDown:
      overlay.fail(link);
      break;
  }
  FailureDetector detector(topo, overlay, sim, options);
  detector.set_horizon(horizon_ms);
  detector.monitor(link);
  DetectionOutcome outcome;
  outcome.events = sim.run();
  outcome.confirm_latency_ms = detector.first_confirm_down(link);
  outcome.suspect_latency_ms = detector.first_suspect(link);
  outcome.stats = detector.stats();
  if (outcome.confirmed()) {
    obs::observe("detector.confirm_ms", outcome.confirm_latency_ms);
  }
  return outcome;
}

DetectedFailureResult run_detected_failure(ProtocolKind kind,
                                           const Topology& topo, LinkId link,
                                           const LinkHealthState& fault,
                                           const DetectorOptions& options,
                                           DelayModel delays,
                                           AnpOptions anp_options,
                                           SimTime horizon_ms) {
  DetectedFailureResult result;
  result.detection =
      measure_detection(topo, link, fault, options, horizon_ms);
  ASPEN_REQUIRE(result.detection.confirmed(),
                "detector never confirmed the fault within the horizon");
  // The measured confirm latency becomes the protocol's detection delay:
  // every reaction and table change is now timed from the *fault* instant.
  delays.detection = result.detection.confirm_latency_ms;
  result.proto = make_protocol(kind, topo, delays, anp_options);
  result.before = result.proto->tables();
  result.reaction = result.proto->simulate_link_failure(link);
  return result;
}

FlapScenarioResult run_flap_scenario(ProtocolKind kind, const Topology& topo,
                                     LinkId link, SimTime period_ms,
                                     double duty, int cycles,
                                     const DetectorOptions& options,
                                     DelayModel delays,
                                     AnpOptions anp_options) {
  ASPEN_REQUIRE(cycles >= 1, "a flap scenario needs at least one cycle");
  auto proto = make_protocol(kind, topo, delays, anp_options);
  const RoutingState start = proto->tables();

  Simulator sim;
  LinkStateOverlay physical(topo);
  physical.set_flapping(link, period_ms, duty);

  FailureDetector detector(topo, physical, sim, options);
  FlapScenarioResult result;
  detector.set_reaction_sink(
      [&](LinkId reported, bool down, SimTime /*at_ms*/) {
        const FailureReport report =
            down ? proto->simulate_link_failure(reported)
                 : proto->simulate_link_recovery(reported);
        result.table_changes += report.switches_reacted;
        result.messages += report.messages_sent;
        result.reaction_time_ms += report.convergence_time_ms;
      });

  const SimTime flap_end = period_ms * cycles;
  // Probe long enough past the heal for the recovery confirm to land.
  detector.set_horizon(
      flap_end + static_cast<SimTime>(options.recovery_threshold +
                                      options.window + 2) *
                     options.probe_interval_ms);
  sim.schedule_at(flap_end, [&physical, link] {
    (void)physical.clear_degradation(link);
  });
  detector.monitor(link);
  (void)sim.run();

  // Reconciliation-on-reuse should leave the protocol's overlay healed; a
  // pathological damping config gets one defensive repair so the scenario
  // always hands back a consistent fabric.
  if (!proto->overlay().is_up(link)) {
    const FailureReport report = proto->simulate_link_recovery(link);
    result.table_changes += report.switches_reacted;
    result.messages += report.messages_sent;
  }

  const DetectorStats& stats = detector.stats();
  result.confirmed_transitions = stats.confirms_down + stats.confirms_up;
  result.notifications = stats.notifications;
  result.suppressed_transitions = stats.suppressed_transitions;
  result.notification_bound = detector.notification_bound(link);
  result.audit = audit_detector(detector);

  const RoutingState& end = proto->tables();
  result.tables_restored = true;
  for (std::size_t s = 0; s < end.tables.size(); ++s) {
    if (!RoutingTables::switch_equal(end.tables, start.tables, s)) {
      result.tables_restored = false;
      break;
    }
  }
  return result;
}

}  // namespace aspen::fault
