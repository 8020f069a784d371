#include "src/serve/driver.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <sstream>

#include "src/fault/seed.h"
#include "src/obs/obs.h"
#include "src/util/contracts.h"
#include "src/util/rng.h"

namespace aspen::serve {

namespace {

const obs::Counter kCheckpoints{"serve.checkpoints"};

/// Time slack for matching virtual-time instants reconstructed from
/// `seal_time + staleness` against the recorded timeline.
constexpr double kAuditEpsilonMs = 1e-6;

/// Query arrivals sit at this offset past the interarrival grid so they
/// can never tie with a chaos action (actions land on multiples of
/// action_every_ms; every serve delay is a multiple of 0.01 ms plus this).
constexpr double kQueryPhaseMs = 0.31;

[[nodiscard]] std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return fault::derive_stream_seed(h, v);
}

[[nodiscard]] std::uint64_t fold_response(std::uint64_t h,
                                          const Response& r) {
  h = mix(h, r.id);
  h = mix(h, static_cast<std::uint64_t>(r.status));
  h = mix(h, r.snapshot_digest);
  h = mix(h, r.staleness_events);
  h = mix(h, std::bit_cast<std::uint64_t>(r.staleness_ms));
  h = mix(h, r.from_cache ? 1u : 0u);
  h = mix(h, r.result.delivered);
  h = mix(h, r.result.hops);
  h = mix(h, r.result.switches_changed);
  h = mix(h, r.result.dests_lost);
  h = mix(h, r.result.flows_delivered);
  h = mix(h, r.result.flows_lost);
  return h;
}

/// One sealed snapshot as the auditor will reconstruct it: the pin is held
/// alive for post-run re-execution.
struct SealRecord {
  std::uint64_t epoch = 0;
  double time_ms = 0.0;
  std::uint64_t digest = 0;
  std::shared_ptr<const routing::PinnedState> pinned;
};

/// Audits one answered query against the recorded ground-truth timeline.
/// Returns an empty string when every label checks out.
[[nodiscard]] std::string audit_outcome(const Topology& topo,
                                        const std::vector<SealRecord>& seals,
                                        const std::vector<double>& action_times,
                                        const Outcome& outcome) {
  const Response& r = outcome.response;
  std::string why = "no seal matches the response's snapshot digest";
  for (const SealRecord& seal : seals) {
    if (seal.digest != r.snapshot_digest) continue;
    const double completion = seal.time_ms + r.staleness_ms;
    if (r.staleness_ms < -kAuditEpsilonMs) {
      why = "negative staleness label";
      continue;
    }
    // The named seal must be the snapshot actually serving at completion
    // time — i.e. no later seal had happened yet.
    bool was_serving = true;
    for (const SealRecord& other : seals) {
      if (other.time_ms > seal.time_ms + kAuditEpsilonMs &&
          other.time_ms <= completion + kAuditEpsilonMs) {
        was_serving = false;
        break;
      }
    }
    if (!was_serving) {
      why = "a newer seal existed at the labeled completion time";
      continue;
    }
    // Staleness-events label: live events between the seal's epoch and the
    // completion instant, reconstructed from the action timeline.
    std::uint64_t events_by_completion = 0;
    for (const double t : action_times) {
      if (t <= completion + kAuditEpsilonMs) ++events_by_completion;
    }
    if (events_by_completion < seal.epoch) {
      why = "completion time predates the seal's own epoch";
      continue;
    }
    if (events_by_completion - seal.epoch != r.staleness_events) {
      why = "staleness-events label disagrees with the action timeline";
      continue;
    }
    if (r.status == ResponseStatus::kOk) {
      const QueryResult expected =
          execute_query(topo, *seal.pinned, outcome.request);
      if (!(expected == r.result)) {
        why = "result differs from re-execution against the named snapshot";
        continue;
      }
    }
    return {};
  }
  std::ostringstream os;
  os << "query id " << outcome.request.id << " ("
     << to_cstring(outcome.request.kind) << ", "
     << to_cstring(r.status) << "): " << why;
  return os.str();
}

}  // namespace

std::uint64_t ServeChaosReport::fingerprint() const {
  std::uint64_t h = 0x5EFD0u;
  h = mix(h, server.fingerprint());
  h = mix(h, clients.submitted);
  h = mix(h, clients.frames_sent);
  h = mix(h, clients.responses);
  h = mix(h, clients.duplicates_ignored);
  h = mix(h, clients.undecodable);
  h = mix(h, clients.retransmits);
  h = mix(h, clients.gave_up);
  h = mix(h, clients.shed_seen);
  h = mix(h, cache_hits);
  h = mix(h, cache_misses);
  h = mix(h, cache_evictions);
  h = mix(h, answered);
  h = mix(h, rejected_deadline);
  h = mix(h, rejected_malformed);
  h = mix(h, gave_up);
  h = mix(h, seals);
  h = mix(h, checkpoints_cut);
  h = mix(h, audited);
  h = mix(h, audit_mismatches);
  h = mix(h, response_stream_hash);
  h = mix(h, reply_stream_hash);
  for (const auto* latencies :
       {&route_latency_ms, &what_if_latency_ms, &loss_latency_ms}) {
    h = mix(h, latencies->size());
    for (const double v : *latencies) {
      h = mix(h, std::bit_cast<std::uint64_t>(v));
    }
  }
  h = mix(h, staleness_event_samples.size());
  for (const std::uint64_t v : staleness_event_samples) h = mix(h, v);
  h = mix(h, staleness_ms.count());
  h = mix(h, std::bit_cast<std::uint64_t>(staleness_ms.total()));
  h = mix(h, chaos.link_failures);
  h = mix(h, chaos.link_recoveries);
  h = mix(h, chaos.switch_crashes);
  h = mix(h, chaos.switch_recoveries);
  h = mix(h, chaos.checks);
  h = mix(h, chaos.ground_truth_violations);
  h = mix(h, chaos.protocol_shortfall);
  h = mix(h, chaos.tables_restored ? 1u : 0u);
  return h;
}

bool ServeChaosReport::passed() const {
  return audit_mismatches == 0 && chaos.ground_truth_violations == 0 &&
         chaos.tables_restored && clients.undecodable == 0 &&
         server.completed == server.admitted && answered > 0;
}

ServeChaosReport run_serve_under_chaos(ProtocolKind kind,
                                       const Topology& topo,
                                       const ServeChaosOptions& options) {
  ASPEN_REQUIRE(options.num_queries >= 1, "num_queries must be >= 1");
  ASPEN_REQUIRE(options.num_clients >= 1, "need at least one client");
  ASPEN_REQUIRE(options.seal_every_actions >= 1,
                "seal cadence must be >= 1 action");
  ASPEN_REQUIRE(options.whatif_permille >= 0 && options.loss_permille >= 0 &&
                    options.whatif_permille + options.loss_permille <= 1000,
                "query-class mix must fit in 1000 permille");

  ServeChaosReport report;
  Simulator sim;
  fault::ChaosCampaign campaign(kind, topo, options.chaos);
  SnapshotRegistry registry(topo, options.chaos.granularity, options.threads);
  Server server(sim, topo, registry, options.server);

  std::vector<std::unique_ptr<Client>> clients;
  clients.reserve(static_cast<std::size_t>(options.num_clients));
  for (int c = 0; c < options.num_clients; ++c) {
    ClientOptions copts = options.client;
    copts.client_id = static_cast<std::uint32_t>(c);
    copts.campaign_seed = options.chaos.seed;
    clients.push_back(std::make_unique<Client>(sim, server, copts));
  }

  // Ground-truth timeline for the post-hoc auditor.
  std::vector<SealRecord> seals;
  std::vector<double> action_times;
  const auto record_seal = [&seals](const Snapshot& snap) {
    seals.push_back(SealRecord{snap.seal_epoch, snap.seal_time_ms,
                               snap.pinned->fingerprint, snap.pinned});
  };
  record_seal(registry.current());

  // Chaos actions on a fixed grid; every seal_every_actions-th action is
  // followed by a seal, so snapshots chase the fabric but always lag it.
  for (int i = 0; i < options.chaos.num_events; ++i) {
    const double when =
        (static_cast<double>(i) + 1.0) * options.action_every_ms;
    sim.schedule_at(when, [&campaign, &registry, &record_seal, &action_times,
                           &sim, &options] {
      if (!campaign.advance()) return;
      registry.note_live_event();
      action_times.push_back(sim.now());
      if (campaign.actions_taken() % options.seal_every_actions == 0) {
        record_seal(registry.seal(campaign.overlay(), sim.now()));
      }
    });
  }

  // Queries draw from their own derived stream, which nothing else reads,
  // so the stream is independent of event interleaving by construction.
  Rng query_rng(
      fault::derive_stream_seed(options.chaos.seed,
                                fault::kStreamServeQueries));
  const std::size_t hosts = static_cast<std::size_t>(topo.num_hosts());
  const std::size_t links = static_cast<std::size_t>(topo.num_links());
  ASPEN_REQUIRE(hosts >= 2, "serve campaign needs at least two hosts");
  std::uint64_t answered_so_far = 0;
  const auto draw = [&](double arrival) {
    Request req;
    const std::size_t roll = query_rng.index(1000);
    if (roll < static_cast<std::size_t>(options.whatif_permille)) {
      req.kind = QueryKind::kWhatIf;
    } else if (roll < static_cast<std::size_t>(options.whatif_permille +
                                               options.loss_permille)) {
      req.kind = QueryKind::kLoss;
    } else {
      req.kind = QueryKind::kRoute;
    }
    req.src = static_cast<std::uint32_t>(query_rng.index(hosts));
    req.dst = static_cast<std::uint32_t>(query_rng.index(hosts));
    if (req.dst == req.src) {
      req.dst = static_cast<std::uint32_t>((req.dst + 1) % hosts);
    }
    req.flow_seed = static_cast<std::uint64_t>(query_rng.index(1u << 30));
    if (req.kind == QueryKind::kWhatIf) {
      const std::size_t cuts = 1 + query_rng.index(3);
      for (std::size_t j = 0; j < cuts; ++j) {
        req.fail_links.push_back(
            static_cast<std::uint32_t>(query_rng.index(links)));
      }
    }
    if (req.kind == QueryKind::kLoss) req.flows = options.loss_flows;
    if (options.deadline_ms > 0.0) {
      req.deadline_ms = arrival + options.deadline_ms;
    }
    return req;
  };
  // Query q is drawn when it arrives, at its scheduled time sim.now().
  // Arrival times grow with q, so the draws run in query order, exactly
  // as if every query were drawn up front.
  const auto submit = [&](std::size_t q) {
    const double arrival = sim.now();
    const Request req = draw(arrival);
    Client* client = clients[q % clients.size()].get();
    client->submit(req, [arrival, kind = req.kind, &report, &server,
                         &answered_so_far, &options,
                         &sim](const Outcome& outcome) {
      if (!outcome.got_response) {
        ++report.gave_up;
        return;
      }
      report.response_stream_hash =
          fold_response(report.response_stream_hash, outcome.response);
      switch (outcome.response.status) {
        case ResponseStatus::kOk: {
          ++report.answered;
          const double latency = sim.now() - arrival;
          switch (kind) {
            case QueryKind::kRoute:
              report.route_latency_ms.push_back(latency);
              break;
            case QueryKind::kWhatIf:
              report.what_if_latency_ms.push_back(latency);
              break;
            case QueryKind::kLoss:
              report.loss_latency_ms.push_back(latency);
              break;
          }
          report.staleness_event_samples.push_back(
              outcome.response.staleness_events);
          report.staleness_ms.add(outcome.response.staleness_ms);
          obs::observe("serve.staleness_events",
                       static_cast<double>(
                           outcome.response.staleness_events));
          ++answered_so_far;
          if (options.checkpoint_every > 0 &&
              answered_so_far %
                      static_cast<std::uint64_t>(
                          options.checkpoint_every) ==
                  0) {
            report.checkpoints.push_back(server.checkpoint());
            ++report.checkpoints_cut;
            obs::count(kCheckpoints);
            obs::trace_event(
                sim.now(), obs::TraceKind::kServeCheckpoint,
                static_cast<std::uint32_t>(report.checkpoints_cut), 0,
                server.stats().completed, "checkpoint");
          }
          break;
        }
        case ResponseStatus::kDeadlineExceeded:
          ++report.rejected_deadline;
          break;
        case ResponseStatus::kMalformed:
          ++report.rejected_malformed;
          break;
        case ResponseStatus::kShed:
          break;  // unreachable: clients retry through SHED
      }
    });
  };
  for (int q = 0; q < options.num_queries; ++q) {
    const double arrival =
        (static_cast<double>(q) + 1.0) * options.query_interarrival_ms +
        kQueryPhaseMs;
    sim.schedule_at(arrival, [&submit, q = static_cast<std::size_t>(q)] {
      submit(q);
    });
  }

  sim.run();
  campaign.finish();

  report.chaos = campaign.outcome();
  report.server = server.stats();
  report.reply_stream_hash = server.reply_stream_hash();
  report.cache_hits = server.cache().hits();
  report.cache_misses = server.cache().misses();
  report.cache_evictions = server.cache().evictions();
  report.seals = registry.seals();
  for (const auto& client : clients) {
    const ClientStats& cs = client->stats();
    report.clients.submitted += cs.submitted;
    report.clients.frames_sent += cs.frames_sent;
    report.clients.responses += cs.responses;
    report.clients.duplicates_ignored += cs.duplicates_ignored;
    report.clients.undecodable += cs.undecodable;
    report.clients.retransmits += cs.retransmits;
    report.clients.gave_up += cs.gave_up;
    report.clients.shed_seen += cs.shed_seen;
  }

  // Post-hoc audit: every accepted response is checked against the pinned
  // snapshot its digest names and the recorded event timeline.
  for (const auto& client : clients) {
    for (const Outcome& outcome : client->outcomes()) {
      if (!outcome.got_response) continue;
      ++report.audited;
      std::string finding =
          audit_outcome(topo, seals, action_times, outcome);
      if (!finding.empty()) {
        ++report.audit_mismatches;
        if (report.audit_messages.size() < 8) {
          report.audit_messages.push_back(std::move(finding));
        }
      }
    }
  }
  obs::gauge_set("serve.audit_mismatches",
                 static_cast<double>(report.audit_mismatches));
  return report;
}

}  // namespace aspen::serve
