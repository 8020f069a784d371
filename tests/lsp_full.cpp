#include "tests/lsp_full.h"

#include <algorithm>

#include "src/obs/obs.h"
#include "src/util/contracts.h"
#include "src/util/status.h"

namespace aspen {

namespace {

const obs::Counter kMsgsSent{"lsp_full.msgs_sent"};
const obs::Counter kLsaInstalls{"lsp_full.lsa_installs"};

}  // namespace

LspLsdbSimulation::LspLsdbSimulation(const Topology& topo, DelayModel delays,
                                     DestGranularity granularity)
    : ProtocolSimulation(topo), delays_(delays), granularity_(granularity) {
  tables_ = compute_updown_routes(topo, overlay(), granularity_);
  state_.assign(topo.num_switches(), SwitchState(topo));
  for (SwitchState& st : state_) st.view = tables_;
  own_seq_.assign(topo.num_switches(), 0);
}

bool LspLsdbSimulation::recompute_row(SwitchId s, LinkId changed) {
  // SPF over this switch's believed overlay.  The believed view differs
  // from its cached SPF result by at most the one link this LSA reported,
  // so the cached state is patched incrementally instead of recomputed
  // (a duplicate-origin LSA that flipped nothing is a no-op for it).
  SwitchState& st = state_[s.value()];
  const LinkId one[] = {changed};
  recompute_updown_routes(*topo_, st.believed, st.view, one);
  // Unequal digests prove the tables differ and skip the deep compare;
  // equal digests are confirmed byte-for-byte, keeping the diff exact.
  const bool digests = tables_.has_digests() && st.view.has_digests();
  const bool differ =
      (digests && tables_.digests[s.value()] != st.view.digests[s.value()]) ||
      !RoutingTables::switch_equal(tables_.tables, st.view.tables, s.value());
  if (!differ) return false;
  tables_.tables.copy_switch(st.view.tables, s.value());
  if (digests) tables_.digests[s.value()] = st.view.digests[s.value()];
  return true;
}

void LspLsdbSimulation::transmit(RunContext& ctx, SwitchId from,
                                 const Lsa& lsa, LinkId arrival_link) {
  const auto forward = [&](const Topology::Neighbor& nb) {
    if (nb.link == arrival_link) return;
    if (!overlay().is_up(nb.link)) return;
    if (!topo_->is_switch_node(nb.node)) return;
    const SwitchId peer = topo_->switch_of(nb.node);
    ++ctx.report.messages_sent;
    obs::count(kMsgsSent);
    obs::trace_event(ctx.sim.now(), obs::TraceKind::kMsgSend, from.value(),
                     peer.value(), lsa.seq, "lsp_full");
    Lsa hopped = lsa;
    hopped.hops = lsa.hops + 1;
    ctx.sim.schedule(delays_.propagation, [this, &ctx, peer, hopped,
                                           via = nb.link] {
      // CPU cost decided on arrival: new LSAs pay full processing (SPF
      // folded in), stale copies only the sequence check.
      SwitchState& st = state_[peer.value()];
      const auto it = st.highest_seq.find(hopped.origin);
      const bool is_new =
          it == st.highest_seq.end() || it->second < hopped.seq;
      const SimTime cost = is_new ? delays_.lsa_processing
                                  : delays_.lsa_duplicate_processing;
      const SimTime done = ctx.cpus[peer.value()].occupy(ctx.sim.now(), cost);
      ctx.sim.schedule_at(done, [this, &ctx, peer, hopped, via] {
        install_and_flood(ctx, peer, hopped, via);
      });
    });
  };
  for (const Topology::Neighbor& nb : topo_->up_neighbors(from)) forward(nb);
  for (const Topology::Neighbor& nb : topo_->down_neighbors(from)) {
    forward(nb);
  }
}

void LspLsdbSimulation::install_and_flood(RunContext& ctx, SwitchId at,
                                          const Lsa& lsa,
                                          LinkId arrival_link) {
  SwitchState& st = state_[at.value()];
  const auto it = st.highest_seq.find(lsa.origin);
  if (it != st.highest_seq.end() && it->second >= lsa.seq) return;  // stale
  ASPEN_ASSERT(lsa.seq >= 1, "LSA sequence numbers start at 1");
  obs::count(kLsaInstalls);
  obs::trace_event(ctx.sim.now(), obs::TraceKind::kMsgRecv, at.value(),
                   lsa.origin, lsa.seq, "lsp_full");
  st.highest_seq[lsa.origin] = lsa.seq;
  if (!ctx.informed[at.value()]) {
    ctx.informed[at.value()] = 1;
    ++ctx.report.switches_informed;
  }

  // Install the reported link state into this switch's believed overlay
  // and rerun SPF — with the SPF hold-down charged to the install time.
  const LinkId link{lsa.link};
  if (lsa.up) {
    st.believed.recover(link);
  } else {
    st.believed.fail(link);
  }
  if (recompute_row(at, link)) {
    if (!ctx.reacted[at.value()]) {
      ctx.reacted[at.value()] = 1;
      ++ctx.report.switches_reacted;
    }
    ctx.react_time[at.value()] =
        std::max(ctx.react_time[at.value()], ctx.sim.now() + delays_.spf_delay);
    ctx.react_hops[at.value()] =
        std::max(ctx.react_hops[at.value()], lsa.hops);
  }
  transmit(ctx, at, lsa, arrival_link);
}

FailureReport LspLsdbSimulation::simulate_link_event(LinkId link, bool up) {
  RunContext ctx;
  ctx.cpus.resize(topo_->num_switches());
  ctx.informed.assign(topo_->num_switches(), 0);
  ctx.reacted.assign(topo_->num_switches(), 0);
  ctx.react_time.assign(topo_->num_switches(), 0.0);
  ctx.react_hops.assign(topo_->num_switches(), 0);

  const Topology::LinkRec& rec = topo_->link(link);
  for (const NodeId endpoint : {rec.upper, rec.lower}) {
    if (!topo_->is_switch_node(endpoint)) continue;
    const SwitchId origin = topo_->switch_of(endpoint);
    ctx.sim.schedule(
        delays_.detection + delays_.lsa_generation_delay,
        [this, &ctx, origin, link, up] {
          const SimTime done = ctx.cpus[origin.value()].occupy(
              ctx.sim.now(), delays_.lsa_processing);
          ctx.sim.schedule_at(done, [this, &ctx, origin, link, up] {
            Lsa lsa;
            lsa.origin = origin.value();
            lsa.seq = ++own_seq_[origin.value()];
            lsa.link = link.value();
            lsa.up = up;
            lsa.hops = 0;
            install_and_flood(ctx, origin, lsa, LinkId::invalid());
          });
        });
  }

  ctx.report.events = ctx.sim.run();
  ctx.report.table_change_completed.assign(topo_->num_switches(),
                                           FailureReport::kNoChange);
  for (std::uint32_t s = 0; s < topo_->num_switches(); ++s) {
    if (!ctx.reacted[s]) continue;
    ASPEN_ASSERT(ctx.informed[s], "a reacting switch was never informed");
    ctx.report.table_change_completed[s] = ctx.react_time[s];
    ctx.report.convergence_time_ms =
        std::max(ctx.report.convergence_time_ms, ctx.react_time[s]);
    ctx.report.max_update_hops =
        std::max(ctx.report.max_update_hops, ctx.react_hops[s]);
  }
  return ctx.report;
}

FailureReport LspLsdbSimulation::simulate_timed_events(
    std::span<const TimedFault> events) {
  ASPEN_REQUIRE(events.size() == 1 && events.front().at <= 0.0,
                "the LSDB model runs one link event at a time, at t=0");
  const TimedFault& ev = events.front();
  ASPEN_REQUIRE(!ev.is_switch_event(),
                "switch crashes not supported by this protocol");
  const bool up = !ev.is_failure();
  const bool flipped = !plane_.apply(ev).links.empty();
  ASPEN_REQUIRE(flipped, "link ", ev.link.value(),
                up ? " is already up" : " is already down");
  obs::trace_event(
      0.0, up ? obs::TraceKind::kLinkRecover : obs::TraceKind::kLinkFail,
      ev.link.value(), 0, 0, "lsp_full");
  return simulate_link_event(ev.link, up);
}

}  // namespace aspen
