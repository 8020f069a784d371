#include "probes.h"

#include <memory>
#include <span>

#include "measure.h"
#include "src/routing/audit.h"
#include "src/routing/delta.h"
#include "src/routing/packet_walk.h"
#include "src/routing/updown.h"
#include "src/serve/server.h"
#include "src/serve/snapshot.h"
#include "src/serve/wire.h"
#include "src/sim/simulator.h"
#include "src/topo/link_state.h"
#include "src/util/parallel.h"

namespace perfbench {

namespace {

using aspen::DestGranularity;
using aspen::HostId;
using aspen::LinkId;
using aspen::LinkStateOverlay;
using aspen::RoutingState;
using aspen::Topology;

/// Calls `once` (which returns the seconds it measured) until `budget_s`
/// of wall time has passed, at least `min_reps` and at most `max_reps`
/// times.
template <typename Fn>
std::vector<double> sample(double budget_s, int min_reps, int max_reps,
                           Fn&& once) {
  std::vector<double> out;
  const double start = now_s();
  while (static_cast<int>(out.size()) < max_reps &&
         (static_cast<int>(out.size()) < min_reps ||
          now_s() - start < budget_s)) {
    out.push_back(once());
  }
  return out;
}

double ms(double s) { return s * 1e3; }
double us(double s) { return s * 1e6; }

std::vector<LinkId> switch_links(const Topology& topo) {
  std::vector<LinkId> links;
  for (aspen::Level level = 2; level <= topo.levels(); ++level) {
    for (const LinkId link : topo.links_at_level(level)) links.push_back(link);
  }
  return links;
}

/// Bytes of the arena one engine-built RoutingState holds: the entry
/// records, the next-hop pool at its constructed shape, and the digests.
double state_mb(const Topology& topo, const RoutingState& state) {
  std::uint64_t slots = 0;
  for (const std::uint32_t cap : aspen::switch_row_caps(topo)) slots += cap;
  const std::uint64_t dests = state.num_dests();
  const std::uint64_t bytes =
      state.tables.size() * dests * sizeof(aspen::RoutingTables::Entry) +
      slots * dests * sizeof(Topology::Neighbor) +
      state.digests.size() * sizeof(std::uint64_t);
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

void probe_full_compute(const Topology& topo, int pool, Metrics& out) {
  const LinkStateOverlay intact(topo);
  const auto time_full = [&] {
    const double t0 = now_s();
    const RoutingState state = aspen::compute_updown_routes(
        topo, intact, DestGranularity::kEdge, /*threads=*/0);
    return now_s() - t0;
  };
  const Usage before = usage_now();
  const std::vector<double> at_pool = sample(1.0, 2, 50, time_full);
  const Usage used = usage_now() - before;
  out["routing.full_ms"] = ms(median(at_pool));
  out["routing.full_minflt"] =
      static_cast<double>(used.minflt) / static_cast<double>(at_pool.size());

  aspen::parallel::set_num_threads(1);
  const double serial = median(sample(0.6, 2, 50, time_full));
  aspen::parallel::set_num_threads(4);
  const double four = median(sample(0.6, 2, 50, time_full));
  aspen::parallel::set_num_threads(pool);
  out["routing.full_speedup_p4"] = four > 0.0 ? serial / four : 0.0;
}

ProbeVerdict probe_walks(const Topology& topo, std::uint64_t seed,
                         Metrics& out) {
  const LinkStateOverlay intact(topo);
  const RoutingState state = aspen::compute_updown_routes(
      topo, intact, DestGranularity::kEdge, /*threads=*/0);
  out["routing.state_mb"] = state_mb(topo, state);
  const aspen::TableRouter router(state);
  Draws draw(mix64(seed, 0x3A1C));
  const std::uint64_t hosts = topo.num_hosts();
  std::uint64_t undelivered = 0;
  const std::vector<double> walks = sample(0.5, 50, 4000, [&] {
    const HostId src{static_cast<std::uint32_t>(draw.below(hosts))};
    const HostId dst{static_cast<std::uint32_t>(
        (src.value() + 1 + draw.below(hosts - 1)) % hosts)};
    aspen::WalkOptions options;
    options.flow_seed = draw.below(1u << 30);
    const double t0 = now_s();
    const aspen::WalkResult walk =
        aspen::walk_packet(topo, router, intact, src, dst, options);
    const double dt = now_s() - t0;
    if (!walk.delivered()) ++undelivered;
    return dt;
  });
  out["routing.walk_us_p50"] = us(median(walks));
  if (undelivered > 0) {
    return {false, " walk-on-intact-fabric-undelivered"};
  }
  return {};
}

ProbeVerdict probe_delta(const Topology& topo, std::uint64_t seed,
                         Metrics& out) {
  aspen::routing::DeltaSession session(topo, DestGranularity::kEdge,
                                       /*threads=*/0);
  const std::vector<LinkId> links = switch_links(topo);
  Draws draw(mix64(seed, 0xDE17A));
  std::vector<double> applies;
  std::uint64_t rebuilt = 0;
  const std::vector<double> rollbacks = sample(1.5, 2, 300, [&] {
    for (int j = 0; j < 4; ++j) {
      const LinkId link = links[draw.below(links.size())];
      const double t0 = now_s();
      session.apply(std::span<const LinkId>(&link, 1));
      applies.push_back(now_s() - t0);
    }
    const double t0 = now_s();
    if (!session.rollback()) ++rebuilt;
    return now_s() - t0;
  });
  out["routing.delta_us_p50"] = us(median(applies));
  out["routing.delta_us_p99"] = us(quantile(applies, 0.99));
  out["routing.rollback_us_p50"] = us(median(rollbacks));

  bool audit_ok = true;
  const std::vector<double> audits = sample(1.0, 1, 20, [&] {
    const double t0 = now_s();
    audit_ok = audit_ok && aspen::routing::audit_incremental(
                               topo, session.overlay(), session.state(),
                               /*threads=*/0)
                               .ok();
    return now_s() - t0;
  });
  out["analysis.audit_ms"] = ms(median(audits));
  if (rebuilt > 0 || !audit_ok) {
    return {false, " delta-rollback-or-audit-drift"};
  }
  return {};
}

ProbeVerdict probe_serve(const Topology& topo, std::uint64_t seed,
                         const std::vector<std::string>* checkpoints,
                         Metrics& out) {
  namespace serve = aspen::serve;
  serve::SnapshotRegistry registry(topo, DestGranularity::kEdge,
                                   /*threads=*/0);
  const std::vector<LinkId> links = switch_links(topo);
  Draws draw(mix64(seed, 0x5E4E));
  LinkStateOverlay live(topo);
  live.fail(links[draw.below(links.size())]);
  const std::shared_ptr<const aspen::routing::PinnedState> pinned =
      registry.seal(live, 0.0).pinned;

  // One request stream per class, drawn as run_serve_under_chaos draws.
  const std::uint64_t hosts = topo.num_hosts();
  const auto request = [&](serve::QueryKind kind) {
    serve::Request req;
    req.kind = kind;
    req.src = static_cast<std::uint32_t>(draw.below(hosts));
    req.dst = static_cast<std::uint32_t>(
        (req.src + 1 + draw.below(hosts - 1)) % hosts);
    req.flow_seed = draw.below(1u << 30);
    if (kind == serve::QueryKind::kWhatIf) {
      const std::uint64_t cuts = 1 + draw.below(3);
      for (std::uint64_t j = 0; j < cuts; ++j) {
        req.fail_links.push_back(
            static_cast<std::uint32_t>(draw.below(topo.num_links())));
      }
    }
    if (kind == serve::QueryKind::kLoss) req.flows = 16;
    return req;
  };
  const std::pair<serve::QueryKind, const char*> classes[] = {
      {serve::QueryKind::kRoute, "route"},
      {serve::QueryKind::kWhatIf, "whatif"},
      {serve::QueryKind::kLoss, "loss"}};
  for (const auto& [kind, name] : classes) {
    const std::vector<double> exec = sample(0.6, 3, 2000, [&] {
      const serve::Request req = request(kind);
      const double t0 = now_s();
      (void)serve::execute_query(topo, *pinned, req);
      return now_s() - t0;
    });
    const std::string prefix = std::string("serve.exec_us_") + name;
    out[prefix + "_p50"] = us(median(exec));
    out[prefix + "_p99"] = us(quantile(exec, 0.99));
  }

  // Alternate one link so every seal has an incremental patch to apply.
  const LinkId flip = links[draw.below(links.size())];
  double at_ms = 0.0;
  const std::vector<double> seals = sample(0.6, 3, 400, [&] {
    if (live.is_up(flip)) {
      live.fail(flip);
    } else {
      live.recover(flip);
    }
    at_ms += 1.0;
    const double t0 = now_s();
    (void)registry.seal(live, at_ms);
    return now_s() - t0;
  });
  out["serve.seal_us_p50"] = us(median(seals));

  bool codec_ok = true;
  const std::vector<double> codec = sample(0.2, 10, 5000, [&] {
    serve::Request req = request(serve::QueryKind::kWhatIf);
    req.id = draw.below(1u << 30);
    serve::Response resp;
    resp.id = req.id;
    resp.snapshot_digest = pinned->fingerprint;
    serve::Request req_back;
    serve::Response resp_back;
    const double t0 = now_s();
    const bool decoded =
        serve::decode_request(serve::encode_request(req), req_back) &&
        serve::decode_response(serve::encode_response(resp), resp_back);
    const double dt = now_s() - t0;
    codec_ok = codec_ok && decoded && req_back.id == req.id &&
               req_back.fail_links == req.fail_links &&
               resp_back.snapshot_digest == resp.snapshot_digest;
    return dt;
  });
  out["serve.codec_us_p50"] = us(median(codec));

  // Kill-and-resume on the run's own checkpoints: restore into a fresh
  // server, re-cut, and require the bytes to match.
  std::vector<double> restores;
  std::vector<double> cuts;
  bool resume_ok = true;
  if (checkpoints != nullptr) {
    for (const std::string& text : *checkpoints) {
      aspen::Simulator sim;
      serve::SnapshotRegistry fresh(topo, DestGranularity::kEdge,
                                    /*threads=*/0);
      serve::Server server(sim, topo, fresh);
      double t0 = now_s();
      server.restore(text);
      restores.push_back(now_s() - t0);
      t0 = now_s();
      const std::string again = server.checkpoint();
      cuts.push_back(now_s() - t0);
      resume_ok = resume_ok && again == text;
    }
  }
  out["serve.restore_ms"] = ms(median(restores));
  out["serve.checkpoint_ms"] = ms(median(cuts));

  ProbeVerdict verdict;
  if (!codec_ok) verdict = {false, " wire-round-trip-mismatch"};
  if (!resume_ok) {
    verdict.ok = false;
    verdict.note += " checkpoint-not-byte-identical-after-restore";
  }
  return verdict;
}

}  // namespace

ProbeVerdict run_probes(const Topology& topo, int pool, std::uint64_t seed,
                        const std::vector<std::string>* checkpoints,
                        Metrics& out) {
  probe_full_compute(topo, pool, out);
  ProbeVerdict verdict;
  for (const ProbeVerdict& v :
       {probe_walks(topo, seed, out), probe_delta(topo, seed, out),
        probe_serve(topo, seed, checkpoints, out)}) {
    verdict.ok = verdict.ok && v.ok;
    verdict.note += v.note;
  }
  return verdict;
}

}  // namespace perfbench
