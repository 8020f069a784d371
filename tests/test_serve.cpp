// Tests for the what-if query service (src/serve): wire framing, the
// digest-keyed result cache, the server's admission ladder (malformed /
// duplicate / shed / deadline / admit), retrying clients over lossy
// channels, fingerprint-sealed kill-and-resume checkpoints, the stepwise
// ChaosCampaign driver, and the serve-under-chaos harness with its
// post-hoc label auditor — including golden-trace and thread-count
// byte-identity.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/aspen/generator.h"
#include "src/fault/chaos.h"
#include "src/obs/obs.h"
#include "src/serve/cache.h"
#include "src/serve/client.h"
#include "src/serve/driver.h"
#include "src/serve/server.h"
#include "src/serve/snapshot.h"
#include "src/serve/wire.h"
#include "src/topo/link_state.h"
#include "src/util/parallel.h"
#include "src/util/status.h"
#include "tests/trace_golden.h"

namespace aspen {
namespace {

using namespace serve;  // NOLINT(google-build-using-namespace)

Topology make_tree(std::vector<int> ftv, int k = 4) {
  const int n = static_cast<int>(ftv.size()) + 1;
  return Topology::build(generate_tree(n, k, FaultToleranceVector(ftv)));
}

/// One server with its registry and simulator, on a small tree.
struct Rig {
  Topology topo;
  Simulator sim;
  SnapshotRegistry registry;
  Server server;

  explicit Rig(ServerOptions options = {})
      : topo(make_tree({0, 1, 0})),
        registry(topo, DestGranularity::kEdge),
        server(sim, topo, registry, options) {}
};

Request route_request(std::uint64_t id, std::uint32_t src = 0,
                      std::uint32_t dst = 1) {
  Request r;
  r.id = id;
  r.kind = QueryKind::kRoute;
  r.src = src;
  r.dst = dst;
  r.flow_seed = 7;
  return r;
}

/// Reply sink that appends every issued frame.
Server::Reply collect(std::vector<std::string>& frames) {
  return [&frames](const std::string& frame) { frames.push_back(frame); };
}

Response decode_one(const std::string& frame) {
  Response r;
  EXPECT_TRUE(decode_response(frame, r));
  return r;
}

// ---- Wire protocol -----------------------------------------------------

TEST(ServeWire, RequestRoundTripsByteExact) {
  Request req;
  req.id = 0x0123456789ABCDEFull;
  req.kind = QueryKind::kWhatIf;
  req.deadline_ms = 12.75;
  req.src = 3;
  req.dst = 9;
  req.fail_links = {4, 0, 17};
  req.flows = 5;
  req.flow_seed = 0xFEEDull;

  const std::string frame = encode_request(req);
  Request back;
  ASSERT_TRUE(decode_request(frame, back));
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.kind, req.kind);
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
  EXPECT_EQ(back.src, req.src);
  EXPECT_EQ(back.dst, req.dst);
  EXPECT_EQ(back.fail_links, req.fail_links);
  EXPECT_EQ(back.flows, req.flows);
  EXPECT_EQ(back.flow_seed, req.flow_seed);
  EXPECT_EQ(encode_request(back), frame);
}

TEST(ServeWire, ResponseRoundTripsByteExact) {
  Response resp;
  resp.id = 42;
  resp.status = ResponseStatus::kOk;
  resp.snapshot_digest = 0xD16E57ull;
  resp.staleness_events = 3;
  resp.staleness_ms = 7.03125;
  resp.from_cache = true;
  resp.result = {1, 4, 0, 0, 12, 4};

  const std::string frame = encode_response(resp);
  const Response back = decode_one(frame);
  EXPECT_EQ(back.id, resp.id);
  EXPECT_EQ(back.status, resp.status);
  EXPECT_EQ(back.snapshot_digest, resp.snapshot_digest);
  EXPECT_EQ(back.staleness_events, resp.staleness_events);
  EXPECT_EQ(back.staleness_ms, resp.staleness_ms);
  EXPECT_EQ(back.from_cache, resp.from_cache);
  EXPECT_EQ(back.result, resp.result);
  EXPECT_EQ(encode_response(back), frame);
}

TEST(ServeWire, DamagedFramesDecodeToMalformedNotWrongAnswers) {
  const std::string good = encode_request(route_request(1));
  Request req;
  Response resp;

  EXPECT_FALSE(decode_request("", req));
  EXPECT_FALSE(decode_request(good.substr(0, good.size() - 1), req));
  EXPECT_FALSE(decode_request(good + "x", req));
  std::string bad_magic = good;
  bad_magic[4] ^= 0x5A;  // payload byte 0: the magic
  EXPECT_FALSE(decode_request(bad_magic, req));
  // Direction confusion: a request frame is not a response frame.
  EXPECT_FALSE(decode_response(good, resp));
  EXPECT_TRUE(decode_request(good, req));
}

TEST(ServeWire, QueryFingerprintIsContentIdentityOnly) {
  Request a = route_request(1, 0, 5);
  Request b = route_request(999, 0, 5);  // different id
  b.deadline_ms = 42.0;                  // different deadline
  EXPECT_EQ(query_fingerprint(a), query_fingerprint(b));

  Request c = route_request(1, 0, 6);  // different content
  EXPECT_NE(query_fingerprint(a), query_fingerprint(c));
  Request d = a;
  d.kind = QueryKind::kWhatIf;
  EXPECT_NE(query_fingerprint(a), query_fingerprint(d));
}

// ---- Result cache ------------------------------------------------------

TEST(ServeCache, FifoEvictionWithCounters) {
  ResultCache cache(2);
  const QueryResult r1{1, 2, 0, 0, 0, 0};
  const QueryResult r2{0, 0, 3, 4, 0, 0};
  const QueryResult r3{0, 0, 0, 0, 5, 6};

  EXPECT_EQ(cache.find(10, 1), nullptr);
  cache.insert(10, 1, r1);
  cache.insert(10, 2, r2);
  ASSERT_NE(cache.find(10, 1), nullptr);
  EXPECT_EQ(*cache.find(10, 2), r2);

  cache.insert(10, 3, r3);  // evicts (10,1), the oldest insertion
  EXPECT_EQ(cache.find(10, 1), nullptr);
  EXPECT_EQ(*cache.find(10, 3), r3);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(ServeCache, ReinsertingAKeyDoesNotReAgeIt) {
  ResultCache cache(2);
  const QueryResult r{1, 0, 0, 0, 0, 0};
  cache.insert(1, 1, r);
  cache.insert(1, 2, r);
  cache.insert(1, 1, r);  // overwrite: (1,1) keeps its original age
  cache.insert(1, 3, r);  // still evicts (1,1), the oldest insertion
  EXPECT_EQ(cache.find(1, 1), nullptr);
  ASSERT_NE(cache.find(1, 2), nullptr);
  ASSERT_NE(cache.find(1, 3), nullptr);
}

// ---- Snapshot registry -------------------------------------------------

TEST(ServeSnapshot, StalenessCountsLiveEventsSinceSeal) {
  const Topology topo = make_tree({0, 1, 0});
  SnapshotRegistry registry(topo, DestGranularity::kEdge);
  EXPECT_EQ(registry.seals(), 1u);  // sealed intact at construction
  EXPECT_EQ(registry.staleness_events(), 0u);

  registry.note_live_event();
  registry.note_live_event();
  EXPECT_EQ(registry.staleness_events(), 2u);

  LinkStateOverlay live(topo);
  const std::uint64_t intact = registry.current().pinned->fingerprint;
  ASSERT_TRUE(live.fail(topo.links_at_level(2)[0]));
  const Snapshot& sealed = registry.seal(live, 5.0);
  EXPECT_EQ(registry.staleness_events(), 0u);
  EXPECT_EQ(sealed.seal_epoch, 2u);
  EXPECT_EQ(sealed.seal_time_ms, 5.0);
  EXPECT_NE(sealed.pinned->fingerprint, intact);
  EXPECT_EQ(registry.seals(), 2u);
}

// ---- Server admission ladder -------------------------------------------

TEST(ServeServer, AnswersRouteQueriesWithSnapshotLabels) {
  Rig rig;
  std::vector<std::string> frames;
  rig.server.handle_frame(encode_request(route_request(1)), collect(frames));
  rig.sim.run();

  ASSERT_EQ(frames.size(), 1u);
  const Response r = decode_one(frames[0]);
  EXPECT_EQ(r.id, 1u);
  EXPECT_EQ(r.status, ResponseStatus::kOk);
  EXPECT_EQ(r.snapshot_digest, rig.registry.current().pinned->fingerprint);
  EXPECT_EQ(r.staleness_events, 0u);
  EXPECT_EQ(r.result.delivered, 1u);  // intact fabric: the walk delivers
  EXPECT_GT(r.result.hops, 0u);
  EXPECT_EQ(rig.server.stats().admitted, 1u);
  EXPECT_EQ(rig.server.stats().completed, 1u);
}

TEST(ServeServer, MalformedAndInvalidFramesNeverTouchTheCpu) {
  Rig rig;
  std::vector<std::string> frames;
  rig.server.handle_frame("not a frame", collect(frames));
  // Shaped but senseless: src == dst.
  rig.server.handle_frame(encode_request(route_request(2, 3, 3)),
                          collect(frames));
  // Out-of-range destination host.
  rig.server.handle_frame(
      encode_request(route_request(
          3, 0, static_cast<std::uint32_t>(rig.topo.num_hosts()))),
      collect(frames));

  ASSERT_EQ(frames.size(), 3u);
  for (const std::string& frame : frames) {
    EXPECT_EQ(decode_one(frame).status, ResponseStatus::kMalformed);
  }
  EXPECT_EQ(rig.server.stats().malformed, 3u);
  EXPECT_EQ(rig.server.stats().admitted, 0u);
  rig.sim.run();
  EXPECT_EQ(rig.server.stats().completed, 0u);
}

TEST(ServeServer, ShedsAtTheInflightWatermark) {
  ServerOptions options;
  options.inflight_watermark = 1;
  Rig rig(options);
  std::vector<std::string> first, second;
  rig.server.handle_frame(encode_request(route_request(1)), collect(first));
  rig.server.handle_frame(encode_request(route_request(2, 0, 2)),
                          collect(second));

  // The second query was shed immediately, with labels attached.
  ASSERT_EQ(second.size(), 1u);
  const Response shed = decode_one(second[0]);
  EXPECT_EQ(shed.status, ResponseStatus::kShed);
  EXPECT_EQ(shed.snapshot_digest,
            rig.registry.current().pinned->fingerprint);
  EXPECT_EQ(rig.server.stats().shed, 1u);

  rig.sim.run();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(decode_one(first[0]).status, ResponseStatus::kOk);
  EXPECT_EQ(rig.server.stats().admitted, 1u);

  // The watermark frees up once the first query completes.
  std::vector<std::string> third;
  rig.server.handle_frame(encode_request(route_request(3, 0, 3)),
                          collect(third));
  rig.sim.run();
  ASSERT_EQ(third.size(), 1u);
  EXPECT_EQ(decode_one(third[0]).status, ResponseStatus::kOk);
}

TEST(ServeServer, DeadlineProjectionCountsCpuQueueWait) {
  Rig rig;  // route service: 0.05 ms
  std::vector<std::string> first, tight, queued;
  rig.server.handle_frame(encode_request(route_request(1)), collect(first));

  // Alone, 0.07 ms of budget would fit a 0.05 ms query — but the CPU is
  // busy until 0.05, so the projected completion (0.10) busts the budget.
  Request r2 = route_request(2, 0, 2);
  r2.deadline_ms = 0.07;
  rig.server.handle_frame(encode_request(r2), collect(tight));
  ASSERT_EQ(tight.size(), 1u);
  EXPECT_EQ(decode_one(tight[0]).status, ResponseStatus::kDeadlineExceeded);
  EXPECT_EQ(rig.server.stats().deadline_rejected, 1u);

  // A roomier budget admits behind the same queue.
  Request r3 = route_request(3, 0, 3);
  r3.deadline_ms = 0.12;
  rig.server.handle_frame(encode_request(r3), collect(queued));
  rig.sim.run();
  ASSERT_EQ(queued.size(), 1u);
  EXPECT_EQ(decode_one(queued[0]).status, ResponseStatus::kOk);
  EXPECT_EQ(rig.server.stats().admitted, 2u);
  EXPECT_EQ(rig.server.stats().completed, 2u);
}

TEST(ServeServer, CompletedDuplicateReplaysStoredBytesExactly) {
  Rig rig;
  const std::string frame = encode_request(route_request(7));
  std::vector<std::string> first, retry;
  rig.server.handle_frame(frame, collect(first));
  rig.sim.run();
  ASSERT_EQ(first.size(), 1u);

  rig.server.handle_frame(frame, collect(retry));  // retry after completion
  ASSERT_EQ(retry.size(), 1u);
  EXPECT_EQ(retry[0], first[0]);  // byte-exact replay, not a re-execution
  EXPECT_EQ(rig.server.stats().duplicate_replays, 1u);
  EXPECT_EQ(rig.server.stats().admitted, 1u);
  EXPECT_EQ(rig.server.stats().completed, 1u);
}

TEST(ServeServer, InFlightDuplicateCoalescesOntoOneExecution) {
  Rig rig;
  const std::string frame = encode_request(route_request(7));
  std::vector<std::string> first, retry;
  rig.server.handle_frame(frame, collect(first));
  rig.server.handle_frame(frame, collect(retry));  // retry while executing
  EXPECT_EQ(rig.server.stats().coalesced, 1u);

  rig.sim.run();
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(retry.size(), 1u);
  EXPECT_EQ(first[0], retry[0]);
  EXPECT_EQ(rig.server.stats().admitted, 1u);  // executed exactly once
  EXPECT_EQ(rig.server.stats().completed, 1u);
}

TEST(ServeServer, ResponsesLabelStalenessAgainstTheLiveEpoch) {
  Rig rig;
  rig.registry.note_live_event();
  rig.registry.note_live_event();
  rig.registry.note_live_event();

  std::vector<std::string> frames;
  rig.sim.schedule(5.0, [&] {
    rig.server.handle_frame(encode_request(route_request(1)),
                            collect(frames));
  });
  rig.sim.run();

  ASSERT_EQ(frames.size(), 1u);
  const Response r = decode_one(frames[0]);
  EXPECT_EQ(r.status, ResponseStatus::kOk);
  EXPECT_EQ(r.staleness_events, 3u);
  // Sealed at t = 0, completed at arrival + route service.
  EXPECT_DOUBLE_EQ(r.staleness_ms, 5.05);
}

TEST(ServeServer, IdenticalContentHitsTheCacheUnderANewId) {
  Rig rig;
  std::vector<std::string> first, second;
  rig.server.handle_frame(encode_request(route_request(1, 0, 4)),
                          collect(first));
  rig.server.handle_frame(encode_request(route_request(2, 0, 4)),
                          collect(second));
  rig.sim.run();

  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  const Response a = decode_one(first[0]);
  const Response b = decode_one(second[0]);
  EXPECT_FALSE(a.from_cache);
  EXPECT_TRUE(b.from_cache);
  EXPECT_EQ(a.result, b.result);
  EXPECT_EQ(rig.server.cache().hits(), 1u);
  EXPECT_EQ(rig.server.cache().misses(), 1u);
}

// ---- Checkpoints -------------------------------------------------------

/// Exercises the server across a seal with failed links, some completed
/// queries (one cached), and a live-epoch gap — checkpoint-worthy state.
std::string busy_checkpoint(Rig& rig) {
  LinkStateOverlay live(rig.topo);
  EXPECT_TRUE(live.fail(rig.topo.links_at_level(2)[0]));
  rig.registry.note_live_event();
  rig.registry.seal(live, 1.0);
  rig.registry.note_live_event();

  std::vector<std::string> frames;
  rig.server.handle_frame(encode_request(route_request(1, 0, 2)),
                          collect(frames));
  rig.server.handle_frame(encode_request(route_request(2, 0, 2)),
                          collect(frames));  // cache hit at completion
  Request what_if = route_request(3, 0, 1);
  what_if.kind = QueryKind::kWhatIf;
  what_if.fail_links = {rig.topo.links_at_level(1)[0].value()};
  rig.server.handle_frame(encode_request(what_if), collect(frames));
  rig.sim.run();
  EXPECT_EQ(frames.size(), 3u);
  EXPECT_EQ(rig.server.stats().completed, 3u);
  return rig.server.checkpoint();
}

TEST(ServeCheckpoint, KillAndResumeIsByteIdentical) {
  Rig original;
  const std::string cp = busy_checkpoint(original);

  Rig resumed;  // fresh process: empty registry, cache, dedup
  resumed.server.restore(cp);
  EXPECT_EQ(resumed.server.checkpoint(), cp);
  EXPECT_EQ(resumed.server.stats().resumes, 1u);
  EXPECT_EQ(resumed.registry.current().pinned->fingerprint,
            original.registry.current().pinned->fingerprint);
  EXPECT_EQ(resumed.server.cache().fingerprint(),
            original.server.cache().fingerprint());

  // A retry of a pre-crash id replays the exact pre-crash bytes.
  std::vector<std::string> replay;
  resumed.server.handle_frame(encode_request(route_request(1, 0, 2)),
                              collect(replay));
  ASSERT_EQ(replay.size(), 1u);
  EXPECT_EQ(decode_one(replay[0]).status, ResponseStatus::kOk);
  EXPECT_EQ(resumed.server.stats().duplicate_replays, 1u);

  // And the resumed server keeps answering new queries from the restored
  // snapshot, labeled with the same digest.
  std::vector<std::string> fresh;
  resumed.server.handle_frame(encode_request(route_request(50, 0, 3)),
                              collect(fresh));
  resumed.sim.run();
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(decode_one(fresh[0]).snapshot_digest,
            original.registry.current().pinned->fingerprint);
}

TEST(ServeCheckpoint, CorruptionIsRejectedBeforeAnyStateChanges) {
  Rig original;
  const std::string cp = busy_checkpoint(original);

  Rig victim;
  std::string bad_magic = cp;
  bad_magic[0] = 'B';
  EXPECT_THROW(victim.server.restore(bad_magic), PreconditionError);

  // Flip one digit of a stats line: the sealed fingerprint must catch it.
  std::string tampered = cp;
  const std::string needle = "received ";
  const std::size_t pos = tampered.find(needle) + needle.size();
  tampered[pos] = tampered[pos] == '9' ? '8' : '9';
  EXPECT_THROW(victim.server.restore(tampered), PreconditionError);

  EXPECT_THROW(victim.server.restore(cp.substr(0, cp.size() / 2)),
               PreconditionError);

  // The victim is untouched: a full restore still lands byte-identically.
  EXPECT_EQ(victim.server.stats().resumes, 0u);
  victim.server.restore(cp);
  EXPECT_EQ(victim.server.checkpoint(), cp);
}

// ---- Client ------------------------------------------------------------

TEST(ServeClient, GivesUpAfterTheRetryCapOnADeadChannel) {
  Rig rig;
  ClientOptions copts;
  copts.client_id = 3;
  copts.channel.drop_rate = 1.0;  // every frame dies on the wire
  Client client(rig.sim, rig.server, copts);
  client.submit(route_request(0));
  rig.sim.run();

  EXPECT_EQ(client.stats().submitted, 1u);
  EXPECT_EQ(client.stats().retransmits,
            static_cast<std::uint64_t>(kMaxClientRetries));
  EXPECT_EQ(client.stats().gave_up, 1u);
  ASSERT_EQ(client.outcomes().size(), 1u);
  EXPECT_FALSE(client.outcomes()[0].got_response);
  EXPECT_EQ(rig.server.stats().received, 0u);
}

TEST(ServeClient, RefusesARetryBudgetAboveTheModuleCap) {
  Rig rig;
  ClientOptions copts;
  copts.max_retries = kMaxClientRetries + 1;
  EXPECT_THROW(Client(rig.sim, rig.server, copts), PreconditionError);
}

TEST(ServeClient, RetriesThroughLossWithoutDoubleApplying) {
  Rig rig;
  ClientOptions copts;
  copts.client_id = 1;
  copts.campaign_seed = 11;
  copts.channel.drop_rate = 0.4;
  copts.channel.duplicate_rate = 0.1;
  Client client(rig.sim, rig.server, copts);

  const std::uint32_t hosts =
      static_cast<std::uint32_t>(rig.topo.num_hosts());
  const int n = 30;
  for (int i = 0; i < n; ++i) {
    const auto src = static_cast<std::uint32_t>(i) % hosts;
    client.submit(route_request(0, src, (src + 1) % hosts));
  }
  rig.sim.run();

  // Loss forced retries, yet the dedup table kept every id to at most one
  // execution: the server never admitted more than one query per id.
  EXPECT_GT(client.stats().retransmits, 0u);
  EXPECT_GT(client.stats().frames_sent, static_cast<std::uint64_t>(n));
  EXPECT_LE(rig.server.stats().admitted, static_cast<std::uint64_t>(n));
  EXPECT_EQ(rig.server.stats().completed, rig.server.stats().admitted);
  std::uint64_t answered = 0;
  for (const Outcome& outcome : client.outcomes()) {
    if (outcome.got_response) ++answered;
  }
  EXPECT_EQ(answered + client.stats().gave_up,
            static_cast<std::uint64_t>(n));
  EXPECT_GT(answered, 0u);
  EXPECT_EQ(client.stats().undecodable, 0u);
}

// ---- Stepwise chaos campaigns ------------------------------------------

TEST(ServeChaosCampaign, StepwiseDrainMatchesTheLegacyLoop) {
  const Topology topo = make_tree({0, 1, 0});
  ChaosOptions options;
  options.seed = 5;
  options.num_events = 12;
  options.check_flows = 64;
  options.check_every = 4;

  const ChaosOutcome legacy =
      run_chaos_campaign(ProtocolKind::kAnp, topo, options);

  fault::ChaosCampaign campaign(ProtocolKind::kAnp, topo, options);
  int steps = 0;
  while (campaign.advance()) ++steps;
  EXPECT_EQ(steps, options.num_events);
  EXPECT_EQ(campaign.actions_taken(), options.num_events);
  EXPECT_FALSE(campaign.finished());
  campaign.finish();
  EXPECT_TRUE(campaign.finished());
  campaign.finish();                   // idempotent
  EXPECT_FALSE(campaign.advance());    // and advance stays a no-op

  const ChaosOutcome& stepped = campaign.outcome();
  EXPECT_EQ(stepped.seed, legacy.seed);
  EXPECT_EQ(stepped.link_failures, legacy.link_failures);
  EXPECT_EQ(stepped.link_recoveries, legacy.link_recoveries);
  EXPECT_EQ(stepped.switch_crashes, legacy.switch_crashes);
  EXPECT_EQ(stepped.switch_recoveries, legacy.switch_recoveries);
  EXPECT_EQ(stepped.compound_runs, legacy.compound_runs);
  EXPECT_EQ(stepped.messages, legacy.messages);
  EXPECT_EQ(stepped.retransmits, legacy.retransmits);
  EXPECT_EQ(stepped.checks, legacy.checks);
  EXPECT_EQ(stepped.checked_flows, legacy.checked_flows);
  EXPECT_EQ(stepped.ground_truth_violations,
            legacy.ground_truth_violations);
  EXPECT_EQ(stepped.protocol_shortfall, legacy.protocol_shortfall);
  EXPECT_EQ(stepped.convergence_ms.count(), legacy.convergence_ms.count());
  EXPECT_EQ(stepped.convergence_ms.total(), legacy.convergence_ms.total());
  EXPECT_EQ(stepped.tables_restored, legacy.tables_restored);
  EXPECT_TRUE(stepped.tables_restored);
}

// ---- Serve under chaos -------------------------------------------------

ServeChaosOptions chaos_serve_options() {
  ServeChaosOptions options;
  options.chaos.seed = 5;
  options.chaos.num_events = 10;
  options.chaos.check_flows = 64;
  options.chaos.check_every = 5;
  options.num_queries = 150;
  options.num_clients = 3;
  options.query_interarrival_ms = 1.0;
  options.action_every_ms = 20.0;
  options.seal_every_actions = 2;
  options.checkpoint_every = 30;
  options.client.channel.drop_rate = 0.2;
  options.client.channel.duplicate_rate = 0.05;
  options.client.channel.jitter_ms = 0.3;
  return options;
}

TEST(ServeUnderChaos, EveryAnsweredLabelSurvivesThePostHocAudit) {
  const Topology topo = make_tree({0, 1, 0});
  const ServeChaosReport report =
      run_serve_under_chaos(ProtocolKind::kAnp, topo, chaos_serve_options());

  EXPECT_TRUE(report.passed()) << (report.audit_messages.empty()
                                       ? "chaos invariant failed"
                                       : report.audit_messages[0]);
  EXPECT_GT(report.answered, 0u);
  EXPECT_EQ(report.audited, report.answered + report.rejected_deadline +
                                report.rejected_malformed);
  EXPECT_EQ(report.audit_mismatches, 0u);
  EXPECT_EQ(report.rejected_malformed, 0u);
  // The channel actually misbehaved and the retry loop actually worked.
  EXPECT_GT(report.clients.retransmits, 0u);
  EXPECT_GT(report.seals, 1u);
  EXPECT_GT(report.checkpoints_cut, 0u);
  EXPECT_EQ(report.checkpoints.size(), report.checkpoints_cut);
  // Degraded-mode answers were genuinely stale at least once.
  EXPECT_GT(report.staleness_ms.count(), 0u);
  // Cache effectiveness is reported through the server's counters.
  EXPECT_EQ(report.cache_hits + report.cache_misses,
            report.server.completed);
}

TEST(ServeUnderChaos, ResumesByteIdenticallyFromEveryCheckpoint) {
  const Topology topo = make_tree({0, 1, 0});
  const ServeChaosReport report =
      run_serve_under_chaos(ProtocolKind::kAnp, topo, chaos_serve_options());
  ASSERT_GT(report.checkpoints.size(), 1u);

  for (std::size_t i = 0; i < report.checkpoints.size(); ++i) {
    const std::string& cp = report.checkpoints[i];
    Simulator sim;
    SnapshotRegistry registry(topo, DestGranularity::kEdge);
    Server server(sim, topo, registry);
    server.restore(cp);
    EXPECT_EQ(server.checkpoint(), cp) << "checkpoint " << i;
    EXPECT_EQ(server.stats().resumes, 1u);
  }
}

TEST(ServeUnderChaos, ReportFingerprintIsThreadCountInvariant) {
  const Topology topo = make_tree({0, 1, 0});
  ServeChaosOptions options = chaos_serve_options();
  options.num_queries = 80;  // trimmed: this test runs the campaign thrice

  parallel::set_num_threads(1);
  options.threads = 1;
  const ServeChaosReport base =
      run_serve_under_chaos(ProtocolKind::kAnp, topo, options);
  ASSERT_TRUE(base.passed());

  for (const int threads : {2, 4}) {
    parallel::set_num_threads(threads);
    options.threads = threads;
    const ServeChaosReport other =
        run_serve_under_chaos(ProtocolKind::kAnp, topo, options);
    EXPECT_EQ(other.fingerprint(), base.fingerprint())
        << "at " << threads << " threads";
    EXPECT_EQ(other.reply_stream_hash, base.reply_stream_hash);
    EXPECT_EQ(other.response_stream_hash, base.response_stream_hash);
  }
  parallel::set_num_threads(1);
}

// Overload on the Fig. 3 <0,0,2> tree: 1,000 queries arriving every
// 0.2 ms against a watermark of two in-flight queries and a 2 ms what-if
// class.  The server must shed rather than queue without bound, client
// retries must still get answers through, and every answer must stay
// audit-clean.
TEST(ServeUnderChaos, OverloadShedsYetStillAnswersAuditClean) {
  const Topology topo = make_tree({0, 0, 2}, 6);
  ServeChaosOptions options;
  options.chaos.seed = 17;
  options.chaos.num_events = 40;
  options.chaos.check_flows = 64;
  options.chaos.check_every = 10;
  options.num_queries = 1000;
  options.num_clients = 8;
  options.query_interarrival_ms = 0.2;
  options.action_every_ms = 1000 * 0.2 / 41.0;  // chaos spans the arrivals
  options.checkpoint_every = 1000 / 6;
  options.client.channel.drop_rate = 0.15;
  options.client.channel.duplicate_rate = 0.05;
  options.client.channel.jitter_ms = 0.3;
  options.server.inflight_watermark = 2;
  options.server.what_if_service_ms = 2.0;
  const ServeChaosReport report =
      run_serve_under_chaos(ProtocolKind::kAnp, topo, options);

  EXPECT_GT(report.server.shed, 0u);
  EXPECT_GT(report.clients.shed_seen, 0u);
  EXPECT_GT(report.answered, 0u);
  EXPECT_EQ(report.audit_mismatches, 0u)
      << (report.audit_messages.empty() ? "" : report.audit_messages[0]);
}

// ---- Golden trace ------------------------------------------------------

ServeChaosOptions golden_serve_options() {
  ServeChaosOptions options;
  options.chaos.seed = 9;
  options.chaos.num_events = 6;
  options.chaos.check_flows = 32;
  options.chaos.check_every = 3;
  options.num_queries = 40;
  options.num_clients = 2;
  options.query_interarrival_ms = 2.0;
  options.action_every_ms = 25.0;
  options.seal_every_actions = 2;
  options.checkpoint_every = 15;
  options.client.channel.drop_rate = 0.15;
  options.client.channel.duplicate_rate = 0.05;
  return options;
}

std::string traced_serve_jsonl(int threads) {
  // Bounded ring, same discipline as the protocol goldens: eviction keeps
  // the newest records and stays deterministic.
  obs::ScopedObs scoped({.metrics = true, .trace = true,
                         .trace_capacity = 2048});
  parallel::set_num_threads(threads);
  ServeChaosOptions options = golden_serve_options();
  options.threads = threads;
  const Topology topo = make_tree({0, 1, 0});
  const ServeChaosReport report =
      run_serve_under_chaos(ProtocolKind::kAnp, topo, options);
  EXPECT_TRUE(report.passed());
  parallel::set_num_threads(1);
  return obs::tracer().to_jsonl();
}

TEST(ServeGolden, ChaosScenarioMatchesTheGoldenTrace) {
  EXPECT_TRUE(golden::matches_golden("serve_chaos.jsonl",
                                     traced_serve_jsonl(1)));
}

TEST(ServeGolden, TraceIsByteIdenticalAcrossThreadCounts) {
  const std::string base = traced_serve_jsonl(1);
  for (const int threads : {2, 4}) {
    EXPECT_EQ(traced_serve_jsonl(threads), base)
        << "at " << threads << " threads";
  }
}

}  // namespace
}  // namespace aspen
