#include "src/proto/lsp.h"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "src/obs/obs.h"
#include "src/proto/audit.h"
#include "src/sim/audit.h"
#include "src/sim/channel.h"
#include "src/util/contracts.h"
#include "src/util/status.h"

namespace aspen {

namespace {

const obs::Counter kLsaInstalls{"lsp.lsa_installs"};
const obs::Counter kMsgsSent{"lsp.msgs_sent"};
const obs::Counter kStaleSwitches{"lsp.stale_switches"};

}  // namespace

LspSimulation::LspSimulation(const Topology& topo, DelayModel delays,
                             DestGranularity granularity)
    : ProtocolSimulation(topo), delays_(delays), granularity_(granularity) {
  tables_ = compute_updown_routes(topo, overlay(), granularity_);
  converged_ = tables_;
  converged_synced_ = true;
  in_sync_.assign(topo.num_switches(), 1);
}

FailureReport LspSimulation::simulate_timed_events(
    std::span<const TimedFault> events) {
  const Topology& topo = *topo_;

  // ---- Preview pass: replay the schedule on copies of the fault-plane
  // state to learn each event's effective link changes (its LSA origins)
  // and the final converged tables.
  struct Record {
    SimTime at = 0.0;
    std::vector<SwitchId> origins;  // upper endpoint first (slot order)
  };
  std::vector<Record> records;
  bool has_switch_event = false;
  const bool was_fully_alive =
      std::ranges::all_of(plane_.alive(), [](char a) { return a != 0; });
  std::vector<char> changes(topo.num_switches(), 0);
  std::vector<LinkId> changed_links;
  // Destinations whose rows the engine rewrote for every switch, and the
  // switches whose diff and flip may stop at those rows (see below).
  std::vector<std::uint64_t> rewritten;
  std::vector<char> narrow;
  {
    FaultPlane future = plane_;
    SimTime prev = 0.0;
    for (const TimedFault& ev : events) {
      ASPEN_REQUIRE(ev.at >= prev, "timed faults must be sorted by time");
      prev = ev.at;
      has_switch_event = has_switch_event || ev.is_switch_event();
      const FaultPlane::Flips flips = future.apply(ev);
      Record rec{ev.at, {}};
      const auto add_origin = [&](NodeId endpoint) {
        if (!topo.is_switch_node(endpoint)) return;  // hosts are mute
        const SwitchId s = topo.switch_of(endpoint);
        if (!future.is_alive(s)) return;  // the dead flood nothing
        if (std::ranges::find(rec.origins, s) == rec.origins.end()) {
          rec.origins.push_back(s);
        }
      };
      for (const LinkId link : flips.links) {
        add_origin(topo.link(link).upper);
        add_origin(topo.link(link).lower);
        changed_links.push_back(link);
      }
      if (!flips.links.empty()) records.push_back(std::move(rec));
    }
    // Exact set of switches whose current tables differ from the post-run
    // routes.  A switch dead at the end keeps its stale tables (it flips in
    // a later run, once revived — the diff is always against tables_).
    //
    // The post-run routes are the maintained converged ground truth,
    // patched in place (only rows the flipped links can affect are
    // recomputed); a previous incomplete bounded run invalidates that
    // cache, forcing a fresh full compute here.
    if (!converged_synced_) {
      converged_ = compute_updown_routes(topo, overlay(), granularity_);
      converged_synced_ = true;
      std::ranges::fill(in_sync_, 0);
    }
    const RecomputeStats patch =
        recompute_updown_routes(topo, future.overlay(), converged_,
                                changed_links);
    for (std::uint64_t d = 0; d < patch.rewritten_dests.size(); ++d) {
      if (patch.rewritten_dests[d]) rewritten.push_back(d);
    }
    // The engine wrote only the rewritten rows and the patched switches'
    // rows.  So an in-sync switch outside the patched set can differ from
    // the new converged_ only in rewritten rows, and comparing (or
    // copying) just those is exact.  Every other switch gets the full
    // per-switch compare.
    narrow = in_sync_;
    for (const SwitchId v : patch.patched) narrow[v.value()] = 0;
    const bool digest_cmp = tables_.has_digests() && converged_.has_digests();
    for (std::uint32_t s = 0; s < topo.num_switches(); ++s) {
      if (!future.alive()[s]) continue;
      // Unequal digests prove the tables differ; equal digests are
      // confirmed row by row, keeping the diff exact.
      if (digest_cmp && tables_.digests[s] != converged_.digests[s]) {
        changes[s] = 1;
      } else if (!narrow[s] && !RoutingTables::switch_equal(
                                   tables_.tables, converged_.tables, s)) {
        changes[s] = 1;
      }
    }
    // Destination-major, so each pass streams one contiguous row.
    for (const std::uint64_t d : rewritten) {
      for (std::uint32_t s = 0; s < topo.num_switches(); ++s) {
        if (!future.alive()[s] || !narrow[s] || changes[s]) continue;
        if (!RoutingTables::rows_equal(tables_.tables, tables_.tables.row(s, d),
                                       converged_.tables,
                                       converged_.tables.row(s, d))) {
          changes[s] = 1;
        }
      }
    }
    // From here on in_sync_ describes the new converged_: an unchanged
    // switch already matches it, a changed one matches once it flips, and
    // a switch dead at the end was not diffed.
    for (std::uint32_t s = 0; s < topo.num_switches(); ++s) {
      in_sync_[s] = future.alive()[s] != 0 && changes[s] == 0 ? 1 : 0;
    }
  }
  // In the paper's regime — perfect channel, healthy links, no crashes —
  // every changed switch must hear an LSA, and failing to is a model bug,
  // not an outcome.  Degraded link health makes copies lossy even over a
  // perfect channel, so it demotes the check to a measured outcome too.
  const bool strict = delays_.channel.perfect() && !has_switch_event &&
                      was_fully_alive && overlay().num_degraded() == 0;

  // ---- Flood simulation: per-switch highest sequence seen per origin
  // slot, serialized CPUs, hop counters on LSAs.  A changed switch flips to
  // the post-run routes once it has heard at least one origin of *every*
  // record (for a single link event: its first new LSA, as before).
  std::vector<std::uint32_t> slot_base(records.size(), 0);
  std::uint32_t num_slots = 0;
  std::uint32_t required = 0;
  for (std::size_t r = 0; r < records.size(); ++r) {
    slot_base[r] = num_slots;
    num_slots += static_cast<std::uint32_t>(records[r].origins.size());
    if (!records[r].origins.empty()) ++required;
  }
  FloodRun flood(*this, changes, num_slots,
                 static_cast<std::uint32_t>(records.size()), required);
  Simulator& sim = flood.sim;
  FailureReport& report = flood.report;

  // ---- Apply the schedule.  State mutations land at event times (t=0
  // immediately, keeping single-event runs identical to the pre-chaos code
  // path); each origin's LSA follows detection + generation-throttle later,
  // costing one LSA processing interval (SPF on its own new view).
  // Live application, with fault traces for what actually flipped (the
  // preview pass above runs on copies and stays silent).
  const auto apply_live = [this](SimTime t_ms, const TimedFault& ev) {
    const FaultPlane::Flips flips = plane_.apply(ev);
    const bool failure = ev.is_failure();
    if (flips.switch_flipped) {
      obs::trace_event(t_ms,
                       failure ? obs::TraceKind::kSwitchCrash
                               : obs::TraceKind::kSwitchRevive,
                       ev.sw.value(), 0, 0, "lsp");
    }
    for (const LinkId link : flips.links) {
      obs::trace_event(t_ms,
                       failure ? obs::TraceKind::kLinkFail
                               : obs::TraceKind::kLinkRecover,
                       link.value(), 0, 0, "lsp");
    }
  };
  for (const TimedFault& ev : events) {
    if (ev.at <= 0.0) {
      apply_live(0.0, ev);
    } else {
      sim.schedule_at(ev.at,
                      [&sim, apply_live, ev] { apply_live(sim.now(), ev); });
    }
  }
  for (std::size_t r = 0; r < records.size(); ++r) {
    for (std::size_t j = 0; j < records[r].origins.size(); ++j) {
      const SwitchId origin = records[r].origins[j];
      const std::uint32_t slot = slot_base[r] + static_cast<std::uint32_t>(j);
      const auto rec = static_cast<std::uint32_t>(r);
      const SimTime when =
          records[r].at + delays_.detection + delays_.lsa_generation_delay;
      sim.schedule_at(when, [run = &flood, origin, slot, rec] {
        run->originate(origin, slot, rec);
      });
    }
  }

  const RunResult run = sim.run_bounded(delays_.max_run_events);
  report.events = run.events;
  report.quiesced = run.completed;
  report.detection_ms = delays_.detection;
  for (std::uint32_t s = 0; s < topo.num_switches(); ++s) {
    if (std::ranges::any_of(flood.seen_row(s),
                            [](char c) { return c != 0; })) {
      ++report.switches_informed;
    }
  }
  report.table_change_completed.assign(topo.num_switches(),
                                       FailureReport::kNoChange);
  for (std::uint32_t s = 0; s < topo.num_switches(); ++s) {
    if (!changes[s]) continue;
    if (flood.table_change_time[s] >= 0.0) {
      ASPEN_ASSERT(flood.records_heard[s] == required,
                   "switch flipped tables before hearing every record");
      if (narrow[s]) {
        for (const std::uint64_t d : rewritten) {
          RoutingTables::Entry& to = tables_.tables.row(s, d);
          const RoutingTables::Entry& from = converged_.tables.row(s, d);
          to.cost = from.cost;
          tables_.tables.assign_hops(to, converged_.tables.hops(from));
        }
      } else {
        tables_.tables.copy_switch(converged_.tables, s);
      }
      if (tables_.has_digests() && converged_.has_digests()) {
        tables_.digests[s] = converged_.digests[s];
      }
      in_sync_[s] = 1;
      report.table_change_completed[s] = flood.table_change_time[s];
      ++report.switches_reacted;
      report.convergence_time_ms =
          std::max(report.convergence_time_ms, flood.table_change_time[s]);
      report.max_update_hops =
          std::max(report.max_update_hops, flood.table_change_hops[s]);
    } else {
      ASPEN_CHECK(!strict, "switch ", s,
                  " needs new routes but never heard an LSA");
      // Under a lossy channel (or with crashes in play) a switch can simply
      // miss the news.  Its tables stay stale; the next run's diff will
      // mark it changed again, so a later flood heals it.
      ++report.stale_switches;
      obs::count(kStaleSwitches);
    }
  }
  // converged_ is the next run's incremental base.  An incomplete bounded
  // run can leave scheduled fault applications unexecuted (the plane then
  // lags the previewed future), so only a completed run keeps it valid.
  converged_synced_ = run.completed;
  const ChannelStats& ch = flood.channel.stats();
  report.channel_dropped = ch.dropped;
  report.health_dropped = ch.health_dropped;
  report.channel_duplicated = ch.duplicated;
  const std::optional<ReliableTransport>& transport = flood.transport;
  if (transport) {
    const TransportStats& tr = transport->stats();
    report.retransmits = tr.retransmits;
    report.acks_sent = tr.acks_sent;
    report.duplicates_dropped = tr.duplicates_dropped;
    report.gave_up = tr.gave_up;
  }
  if (contracts::effective_audit_level(delays_.audit_level) >=
      contracts::AuditLevel::kParanoid) {
    AuditReport self_audit = proto::audit_channel(ch);
    if (transport) {
      self_audit.merge(proto::audit_transport(transport->stats(),
                                              delays_.retransmit.max_retries));
      if (run.completed) {
        self_audit.merge(proto::audit_transport_quiescence(*transport));
      }
    }
    self_audit.merge(sim::audit_queue(sim));
    self_audit.merge(audit());
    contracts::enforce(self_audit, "lsp self-audit");
  }
  return report;
}

// ---- FloodRun ---------------------------------------------------------

LspSimulation::FloodRun::FloodRun(LspSimulation& owner,
                                  const std::vector<char>& changed,
                                  std::uint32_t slots, std::uint32_t records,
                                  std::uint32_t required_records)
    : lsp(owner),
      topo(*owner.topo_),
      delays(owner.delays_),
      channel(owner.delays_.channel),
      changes(changed),
      num_slots(slots),
      num_records(records),
      required(required_records) {
  if (delays.channel.reliable) {
    transport.emplace(sim, channel, delays.retransmit);
  }
  const std::size_t switches = topo.num_switches();
  cpus.resize(switches);
  seen.assign(switches * num_slots, 0);
  record_heard.assign(switches * num_records, 0);
  records_heard.assign(switches, 0);
  table_change_time.assign(switches, -1.0);
  table_change_hops.assign(switches, 0);
}

void LspSimulation::FloodRun::originate(SwitchId origin, std::uint32_t slot,
                                        std::uint32_t rec) {
  if (!lsp.plane_.is_alive(origin)) return;  // crashed before detecting
  const SimTime done =
      cpus[origin.value()].occupy(sim.now(), delays.lsa_processing);
  sim.schedule_at(done, [run = this, origin, slot, rec] {
    if (!run->lsp.plane_.is_alive(origin)) return;  // crashed mid-origination
    if (run->seen_at(origin, slot)) return;
    run->install(origin, slot, rec, 0);
    run->flood(origin, LinkId::invalid(), slot, rec, 0);
  });
}

void LspSimulation::FloodRun::install(SwitchId at, std::uint32_t slot,
                                      std::uint32_t rec, int hops) {
  ASPEN_ASSERT(slot < num_slots, "LSA slot out of range");
  ASPEN_ASSERT(lsp.plane_.is_alive(at),
               "a crashed switch cannot install LSAs");
  obs::count(kLsaInstalls);
  obs::trace_event(sim.now(), obs::TraceKind::kMsgRecv, at.value(), 0, slot,
                   "lsp");
  seen_at(at, slot) = 1;
  char& heard = record_heard[std::size_t{at.value()} * num_records + rec];
  if (!heard) {
    heard = 1;
    ++records_heard[at.value()];
  }
  if (changes[at.value()] && records_heard[at.value()] == required &&
      table_change_time[at.value()] < 0) {
    // Routes install only after the SPF hold-down; flooding is not held
    // (OSPF's fast-flood/slow-SPF split).
    table_change_time[at.value()] = sim.now() + delays.spf_delay;
    table_change_hops[at.value()] = hops;
  }
}

void LspSimulation::FloodRun::flood(SwitchId from, LinkId arrival_link,
                                    std::uint32_t slot, std::uint32_t rec,
                                    int hops) {
  for (const Topology::Neighbor& nb : topo.up_neighbors(from)) {
    forward(from, arrival_link, nb, slot, rec, hops);
  }
  for (const Topology::Neighbor& nb : topo.down_neighbors(from)) {
    forward(from, arrival_link, nb, slot, rec, hops);
  }
}

void LspSimulation::FloodRun::forward(SwitchId from, LinkId arrival_link,
                                      const Topology::Neighbor& nb,
                                      std::uint32_t slot, std::uint32_t rec,
                                      int hops) {
  if (nb.link == arrival_link) return;
  const LinkStateOverlay& overlay = lsp.overlay();
  if (!overlay.is_up(nb.link)) return;
  if (!topo.is_switch_node(nb.node)) return;  // hosts do not flood
  const SwitchId dst = topo.switch_of(nb.node);
  ++report.messages_sent;
  obs::count(kMsgsSent);
  obs::trace_event(sim.now(), obs::TraceKind::kMsgSend, from.value(),
                   dst.value(), slot, "lsp");
  auto deliver = [run = this, dst, slot, rec, hops, via = nb.link] {
    run->arrive(dst, slot, rec, hops, via);
  };
  // LSAs ride the same physical links as data, so gray/flapping health
  // eats flood copies too (0 on healthy links, no Rng draw).
  if (transport) {
    transport->send(
        delays.propagation, std::move(deliver),
        [run = this, link = nb.link, from] {
          return run->lsp.overlay().is_up(link) &&
                 run->lsp.plane_.is_alive(from);
        },
        [run = this, dst] { return run->lsp.plane_.is_alive(dst); },
        [run = this, link = nb.link] {
          return run->lsp.overlay().loss_now(link, run->sim.now());
        });
  } else {
    channel.transmit(sim, delays.propagation, std::move(deliver),
                     overlay.loss_now(nb.link, sim.now()));
  }
}

void LspSimulation::FloodRun::arrive(SwitchId dst, std::uint32_t slot,
                                     std::uint32_t rec, int hops,
                                     LinkId via) {
  if (!lsp.plane_.is_alive(dst)) return;  // crashed while in flight
  const SimTime cost = seen_at(dst, slot) ? delays.lsa_duplicate_processing
                                          : delays.lsa_processing;
  const SimTime done = cpus[dst.value()].occupy(sim.now(), cost);
  sim.schedule_at(done, [run = this, dst, slot, rec, hops, via] {
    // Re-check at processing completion: a copy that raced in while this
    // one sat on the CPU may have installed it first; the switch may also
    // have crashed while the copy queued.
    if (!run->lsp.plane_.is_alive(dst)) return;
    if (run->seen_at(dst, slot)) return;
    run->install(dst, slot, rec, hops + 1);
    run->flood(dst, via, slot, rec, hops + 1);
  });
}

}  // namespace aspen
