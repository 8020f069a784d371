#include "src/proto/anp.h"

#include <algorithm>
#include <span>
#include <sstream>
#include <utility>

#include "src/obs/obs.h"
#include "src/proto/audit.h"
#include "src/sim/audit.h"
#include "src/util/contracts.h"
#include "src/util/status.h"

namespace aspen {

namespace {

const obs::Counter kMsgsSent{"anp.msgs_sent"};
const obs::Counter kMsgsRecv{"anp.msgs_recv"};

// Rewrites one forwarding entry while keeping the engine's per-switch
// digest in sync (fwd_table.h): digest ^= old_row_hash ^ new_row_hash.
// Every ANP table mutation goes through here so digest short-circuits
// (switches_with_changed_tables, chaos restoration checks) stay exact.
// `fn` mutates the entry's pool slice through the owning RoutingTables
// (erase_hop_at / insert_hop_by_link / erase_hops_if).
template <typename Fn>
void mutate_entry(RoutingState& state, SwitchId s, std::uint64_t e, Fn&& fn) {
  RoutingTables& tables = state.tables;
  RoutingTables::Entry& entry = tables.row(s.value(), e);
  const bool keep = state.has_digests();
  const std::uint64_t before = keep ? hash_fwd_entry(e, tables, entry) : 0;
  fn(entry);
  if (keep) {
    state.digests[s.value()] ^= before ^ hash_fwd_entry(e, tables, entry);
  }
}

}  // namespace

AnpSimulation::AnpSimulation(const Topology& topo, DelayModel delays,
                             AnpOptions options, DestGranularity granularity)
    : ProtocolSimulation(topo), delays_(delays), options_(options) {
  tables_ = compute_updown_routes(topo, overlay(), granularity);
  state_.resize(topo.num_switches());
  for (auto& s : state_) {
    s.announced_lost.assign(tables_.num_dests(), 0);
  }
}

void AnpSimulation::init_context(RunContext& ctx) {
  ctx.channel = ChannelModel(delays_.channel);
  if (delays_.channel.reliable) {
    ctx.transport.emplace(ctx.sim, ctx.channel, delays_.retransmit);
  }
  ctx.cpus.resize(topo_->num_switches());
  ctx.informed.assign(topo_->num_switches(), 0);
  ctx.reacted.assign(topo_->num_switches(), 0);
  ctx.react_time.assign(topo_->num_switches(), 0.0);
  ctx.react_hops.assign(topo_->num_switches(), 0);
}

void AnpSimulation::mark_informed(RunContext& ctx, SwitchId s) {
  if (!ctx.informed[s.value()]) {
    ctx.informed[s.value()] = 1;
    ++ctx.report.switches_informed;
  }
}

void AnpSimulation::mark_reaction(RunContext& ctx, SwitchId s, SimTime when,
                                  int hops) {
  ASPEN_ASSERT(plane_.is_alive(s), "a crashed switch cannot react");
  if (!ctx.reacted[s.value()]) {
    ctx.reacted[s.value()] = 1;
    ++ctx.report.switches_reacted;
  }
  ctx.react_time[s.value()] = std::max(ctx.react_time[s.value()], when);
  ctx.react_hops[s.value()] = std::max(ctx.react_hops[s.value()], hops);
}

std::uint32_t AnpSimulation::store_notice(RunContext& ctx,
                                          std::vector<DestIndex> dests) {
  ctx.notices.push_back(std::move(dests));
  return static_cast<std::uint32_t>(ctx.notices.size() - 1);
}

void AnpSimulation::transmit_notification(RunContext& ctx, SwitchId from,
                                          const Topology::Neighbor& nb,
                                          std::uint32_t notice, bool lost,
                                          int hops) {
  if (!overlay().is_up(nb.link)) return;
  if (!topo_->is_switch_node(nb.node)) return;  // hosts are mute
  const std::size_t num_dests = ctx.notices[notice].size();
  ASPEN_ASSERT(num_dests != 0, "notifications always carry destinations");
  const SwitchId peer = topo_->switch_of(nb.node);
  ++ctx.report.messages_sent;
  const std::uint64_t seq = ++ctx.notice_seq;
  obs::count(kMsgsSent);
  obs::trace_event(ctx.sim.now(), obs::TraceKind::kMsgSend, from.value(),
                   peer.value(), num_dests, lost ? "anp_lost" : "anp_ok");
  // The reliable transport checks the receiver before it delivers; the
  // bare channel leaves that to this guard (died in flight).
  auto deliver = [this, &ctx, peer, from, seq, notice, lost, hops] {
    if (!plane_.is_alive(peer)) return;
    const SimTime done =
        ctx.cpus[peer.value()].occupy(ctx.sim.now(), delays_.anp_processing);
    ctx.sim.schedule_at(done, [this, &ctx, peer, from, seq, notice, lost,
                               hops] {
      if (!plane_.is_alive(peer)) return;  // crashed while queued on its CPU
      handle_notification(ctx, peer, from, seq, notice, lost, hops);
    });
  };
  // Control traffic rides the same physical link as data, so a gray or
  // flapping link eats notifications too (sampled at each copy's transmit
  // time); healthy links return 0 and add no Rng draws.
  if (ctx.transport) {
    ctx.transport->send(
        delays_.propagation, std::move(deliver),
        [this, link = nb.link, from] {
          return overlay().is_up(link) && plane_.is_alive(from);
        },
        [this, peer] { return plane_.is_alive(peer); },
        [this, &ctx, link = nb.link] {
          return overlay().loss_now(link, ctx.sim.now());
        });
  } else {
    ctx.channel.transmit(ctx.sim, delays_.propagation, std::move(deliver),
                         overlay().loss_now(nb.link, ctx.sim.now()));
  }
}

void AnpSimulation::send_notification(RunContext& ctx, SwitchId from,
                                      NodeId exclude,
                                      std::vector<DestIndex> dests, bool lost,
                                      int hops) {
  if (dests.empty()) return;
  if (!plane_.is_alive(from)) return;  // the dead do not speak

  const std::uint32_t notice = store_notice(ctx, std::move(dests));
  for (const Topology::Neighbor& nb : topo_->up_neighbors(from)) {
    if (nb.node == exclude) continue;
    transmit_notification(ctx, from, nb, notice, lost, hops);
  }
  if (options_.notify_children) {
    for (const Topology::Neighbor& nb : topo_->down_neighbors(from)) {
      if (nb.node == exclude) continue;
      transmit_notification(ctx, from, nb, notice, lost, hops);
    }
  }
}

void AnpSimulation::send_resync(RunContext& ctx, SwitchId from,
                                const Topology::Neighbor& peer) {
  // A resync must only travel along directions notifications flow; planting
  // withdrawal state the peer can never retract would wedge its table.
  contracts::enforce(
      proto::audit_resync_direction(*this, from, topo_->switch_of(peer.node)),
      "anp send_resync");
  // Which destinations does `from` currently consider lost?  The peer uses
  // the complement to restore withdrawal-log entries whose loss notices
  // were since retracted — retractions it may have missed while this
  // adjacency (or either switch) was down.
  std::vector<DestIndex> lost;
  std::vector<DestIndex> fine;
  const SwitchState& st = state_[from.value()];
  for (DestIndex e = 0; e < tables_.num_dests(); ++e) {
    (st.announced_lost[e] ? lost : fine).push_back(e);
  }
  if (!lost.empty()) {
    transmit_notification(ctx, from, peer, store_notice(ctx, std::move(lost)),
                          /*lost=*/true, /*hops=*/1);
  }
  if (!fine.empty()) {
    transmit_notification(ctx, from, peer, store_notice(ctx, std::move(fine)),
                          /*lost=*/false, /*hops=*/1);
  }
}

void AnpSimulation::handle_notification(RunContext& ctx, SwitchId at,
                                        SwitchId neighbor, std::uint64_t seq,
                                        std::uint32_t notice, bool lost,
                                        int hops) {
  // A span over the list's own buffer stays valid while this handler
  // stores new notices (ctx.notices may reallocate; its lists do not).
  const std::span<const DestIndex> dests = ctx.notices[notice];
  obs::count(kMsgsRecv);
  obs::trace_event(ctx.sim.now(), obs::TraceKind::kMsgRecv, at.value(),
                   neighbor.value(), dests.size(),
                   lost ? "anp_lost" : "anp_ok");
  mark_informed(ctx, at);
  SwitchState& st = state_[at.value()];
  const NodeId neighbor_node = topo_->node_of(neighbor);
  bool changed = false;
  std::vector<DestIndex> to_forward;

  // §6 assumes notices arrive in order; a jittered channel can swap two of
  // one sender's notices.  A dest takes its state only from the newest
  // notice that named it, so an older notice arriving late changes nothing.
  const auto newest = [&](DestIndex e) {
    const auto [it, first] =
        ctx.newest.try_emplace({at.value(), neighbor.value(), e}, seq);
    if (first) return true;
    if (it->second >= seq) return false;
    it->second = seq;
    return true;
  };

  if (lost) {
    // The neighbor can no longer reach these destinations: every next hop
    // of ours that goes *through it* is dead for them, regardless of which
    // of our links to it carries the traffic.
    for (const DestIndex e : dests) {
      if (!newest(e)) continue;
      std::vector<Topology::Neighbor> removed;
      bool now_empty = false;
      mutate_entry(tables_, at, e, [&](RoutingTables::Entry& entry) {
        tables_.tables.erase_hops_if(
            entry, [&](const Topology::Neighbor& nb) {
              if (nb.node != neighbor_node) return false;
              removed.push_back(nb);
              return true;
            });
        now_empty = entry.hop_count == 0;
      });
      if (removed.empty()) continue;
      changed = true;
      auto& log = st.removed_by_neighbor[neighbor.value()][e];
      log.insert(log.end(), removed.begin(), removed.end());
      if (now_empty && !st.announced_lost[e]) {
        st.announced_lost[e] = 1;
        to_forward.push_back(e);
      }
    }
  } else {
    // Recovery: restore exactly what this neighbor's loss notice removed.
    const auto nb_it = st.removed_by_neighbor.find(neighbor.value());
    for (const DestIndex e : dests) {
      if (!newest(e) || nb_it == st.removed_by_neighbor.end()) continue;
      const auto log_it = nb_it->second.find(e);
      if (log_it == nb_it->second.end()) continue;
      bool was_empty = false;
      mutate_entry(tables_, at, e, [&](RoutingTables::Entry& entry) {
        was_empty = entry.hop_count == 0;
        for (const Topology::Neighbor& nb : log_it->second) {
          tables_.tables.insert_hop_by_link(entry, nb);
        }
        ASPEN_ASSERT(entry.hop_count != 0,
                     "replaying a withdrawal log restores at least one hop");
      });
      nb_it->second.erase(log_it);
      changed = true;
      if (was_empty && st.announced_lost[e]) {
        st.announced_lost[e] = 0;
        to_forward.push_back(e);
      }
    }
    if (nb_it != st.removed_by_neighbor.end() && nb_it->second.empty()) {
      st.removed_by_neighbor.erase(nb_it);
    }
  }

  if (changed) mark_reaction(ctx, at, ctx.sim.now(), hops);
  send_notification(ctx, at, neighbor_node, std::move(to_forward), lost,
                    hops + 1);
}

void AnpSimulation::detect_failure(RunContext& ctx, SwitchId s, LinkId link) {
  mark_informed(ctx, s);
  SwitchState& st = state_[s.value()];
  bool changed = false;
  std::vector<DestIndex> lost;
  for (DestIndex e = 0; e < tables_.num_dests(); ++e) {
    const RoutingTables::Entry& probe = tables_.tables.row(s.value(), e);
    const std::span<const Topology::Neighbor> phops =
        tables_.tables.hops(probe);
    const auto it = std::ranges::find_if(
        phops, [&](const Topology::Neighbor& nb) { return nb.link == link; });
    if (it == phops.end()) continue;
    const auto index = static_cast<std::uint64_t>(it - phops.begin());
    st.removed_by_link[link.value()][e] = *it;
    bool now_empty = false;
    mutate_entry(tables_, s, e, [&](RoutingTables::Entry& entry) {
      tables_.tables.erase_hop_at(entry, index);
      now_empty = entry.hop_count == 0;
    });
    changed = true;
    if (now_empty && !st.announced_lost[e]) {
      st.announced_lost[e] = 1;
      lost.push_back(e);
    }
  }
  ASPEN_ASSERT(changed || lost.empty(),
               "cannot announce losses without removing hops");
  if (changed) mark_reaction(ctx, s, ctx.sim.now(), 0);
  send_notification(ctx, s, NodeId::invalid(), std::move(lost),
                    /*lost=*/true, /*hops=*/1);
}

void AnpSimulation::detect_recovery(RunContext& ctx, SwitchId s, LinkId link) {
  mark_informed(ctx, s);
  SwitchState& st = state_[s.value()];
  const auto link_it = st.removed_by_link.find(link.value());
  if (link_it != st.removed_by_link.end()) {
    bool changed = false;
    std::vector<DestIndex> restored;
    for (const auto& [e, nb] : link_it->second) {
      bool was_empty = false;
      mutate_entry(tables_, s, e, [&](RoutingTables::Entry& entry) {
        was_empty = entry.hop_count == 0;
        tables_.tables.insert_hop_by_link(entry, nb);
      });
      changed = true;
      if (was_empty && st.announced_lost[e]) {
        st.announced_lost[e] = 0;
        restored.push_back(e);
      }
    }
    st.removed_by_link.erase(link_it);
    if (changed) mark_reaction(ctx, s, ctx.sim.now(), 0);
    send_notification(ctx, s, NodeId::invalid(), std::move(restored),
                      /*lost=*/false, /*hops=*/1);
  }

  // With the local log replayed, summarize current state for the peer —
  // but only along directions notifications normally flow (up always, down
  // only with notify_children).  A resync in a direction the protocol never
  // uses would plant withdrawal state the peer has no later notice to
  // retract, permanently wedging its table.
  if (options_.adjacency_resync) {
    const Topology::LinkRec& rec = topo_->link(link);
    const NodeId self = topo_->node_of(s);
    const NodeId other = rec.upper == self ? rec.lower : rec.upper;
    const bool peer_is_parent = other == rec.upper;
    if ((peer_is_parent || options_.notify_children) &&
        topo_->is_switch_node(other) &&
        plane_.is_alive(topo_->switch_of(other))) {
      send_resync(ctx, s, Topology::Neighbor{other, link});
    }
  }
}

void AnpSimulation::schedule_detections(RunContext& ctx, LinkId link,
                                        bool failure) {
  // Detection is a local, data-plane observation (§6: the switch "simply
  // forwards packets … through h rather than f upon discovering the
  // failure") — it happens at +detection, not after a routing-CPU slot.
  const Topology::LinkRec& rec = topo_->link(link);
  for (const NodeId endpoint : {rec.upper, rec.lower}) {
    if (!topo_->is_switch_node(endpoint)) continue;  // hosts do not react
    const SwitchId s = topo_->switch_of(endpoint);
    if (!plane_.is_alive(s)) continue;
    ctx.sim.schedule(delays_.detection, [this, &ctx, s, link, failure] {
      if (!plane_.is_alive(s)) return;  // crashed before detection fired
      if (failure) {
        detect_failure(ctx, s, link);
      } else {
        detect_recovery(ctx, s, link);
      }
    });
  }
}

void AnpSimulation::apply_fault(RunContext& ctx, const TimedFault& ev) {
  const FaultPlane::Flips flips = plane_.apply(ev);
  const bool failure = ev.is_failure();
  // The trace names the event itself; links a crash or revival took with
  // it show up as the detections they cause.
  if (ev.is_switch_event()) {
    if (flips.switch_flipped) {
      obs::trace_event(ctx.sim.now(),
                       failure ? obs::TraceKind::kSwitchCrash
                               : obs::TraceKind::kSwitchRevive,
                       ev.sw.value(), 0, 0, "anp");
    }
  } else if (!flips.links.empty()) {
    obs::trace_event(ctx.sim.now(),
                     failure ? obs::TraceKind::kLinkFail
                             : obs::TraceKind::kLinkRecover,
                     ev.link.value(), 0, 0, "anp");
  }
  // A crashed switch detects nothing; any work already queued for it is
  // discarded by the alive guards on the scheduled closures.
  for (const LinkId link : flips.links) {
    schedule_detections(ctx, link, failure);
  }
}

FailureReport AnpSimulation::simulate_timed_events(
    std::span<const TimedFault> events) {
  RunContext ctx;
  init_context(ctx);
  SimTime prev = 0.0;
  for (const TimedFault& ev : events) {
    ASPEN_REQUIRE(ev.at >= prev, "timed faults must be sorted by time");
    prev = ev.at;
    if (ev.at <= 0.0) {
      // Immediate application keeps single-event runs identical to the
      // pre-chaos code path (no extra scheduler events).
      apply_fault(ctx, ev);
    } else {
      ctx.sim.schedule_at(ev.at, [this, &ctx, ev] { apply_fault(ctx, ev); });
    }
  }
  return finish(ctx);
}

AuditReport AnpSimulation::audit() const {
  AuditReport report;
  for (std::uint32_t v = 0; v < topo_->num_switches(); ++v) {
    const SwitchId s{v};
    const SwitchState& st = state_[v];
    // Recovery detection replays and erases the per-link log, so a log
    // keyed by a live link means a replay never happened.
    for (const auto& [link_raw, log] : st.removed_by_link) {
      if (overlay().is_up(LinkId{link_raw})) {
        std::ostringstream os;
        os << to_string(s) << " logs " << log.size()
           << " withdrawal(s) against " << to_string(LinkId{link_raw})
           << " which is up";
        report.add(AuditCode::kWithdrawalLogStale, os.str());
      }
    }
    for (DestIndex e = 0; e < tables_.num_dests(); ++e) {
      if (st.announced_lost[e] != 0 &&
          tables_.tables.row(s.value(), e).hop_count != 0) {
        std::ostringstream os;
        os << to_string(s) << " announced dest " << e
           << " lost but still holds "
           << tables_.tables.row(s.value(), e).hop_count << " next hop(s)";
        report.add(AuditCode::kAnnouncedLostMismatch, os.str());
      }
    }
  }
  report.merge(ProtocolSimulation::audit());
  return report;
}

FailureReport AnpSimulation::finish(RunContext& ctx) {
  const RunResult run = ctx.sim.run_bounded(delays_.max_run_events);
  ctx.report.events = run.events;
  ctx.report.quiesced = run.completed;
  ctx.report.detection_ms = delays_.detection;
  ctx.report.table_change_completed.assign(topo_->num_switches(),
                                           FailureReport::kNoChange);
  for (std::uint32_t s = 0; s < topo_->num_switches(); ++s) {
    if (ctx.reacted[s]) {
      ASPEN_ASSERT(ctx.informed[s],
                   "a reacting switch must first have been informed");
      ctx.report.table_change_completed[s] = ctx.react_time[s];
    }
  }
  for (std::uint32_t s = 0; s < topo_->num_switches(); ++s) {
    if (!ctx.reacted[s]) continue;
    ctx.report.convergence_time_ms =
        std::max(ctx.report.convergence_time_ms, ctx.react_time[s]);
    ctx.report.max_update_hops =
        std::max(ctx.report.max_update_hops, ctx.react_hops[s]);
  }
  const ChannelStats& ch = ctx.channel.stats();
  ctx.report.channel_dropped = ch.dropped;
  ctx.report.health_dropped = ch.health_dropped;
  ctx.report.channel_duplicated = ch.duplicated;
  if (ctx.transport) {
    const TransportStats& tr = ctx.transport->stats();
    ctx.report.retransmits = tr.retransmits;
    ctx.report.acks_sent = tr.acks_sent;
    ctx.report.duplicates_dropped = tr.duplicates_dropped;
    ctx.report.gave_up = tr.gave_up;
  }
  if (contracts::effective_audit_level(delays_.audit_level) >=
      contracts::AuditLevel::kParanoid) {
    AuditReport self_audit = proto::audit_channel(ch);
    if (ctx.transport) {
      self_audit.merge(proto::audit_transport(ctx.transport->stats(),
                                              delays_.retransmit.max_retries));
      if (run.completed) {
        self_audit.merge(proto::audit_transport_quiescence(*ctx.transport));
      }
    }
    self_audit.merge(sim::audit_queue(ctx.sim));
    // State invariants assume no detection is still queued.
    if (run.completed) self_audit.merge(audit());
    contracts::enforce(self_audit, "anp self-audit");
  }
  return ctx.report;
}

}  // namespace aspen
