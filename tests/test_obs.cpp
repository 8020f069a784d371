// Unit and property tests for the observability layer (src/obs/):
// registry semantics, tracer ring behavior, both export formats, the
// zero-overhead-when-disabled contract, and metric identities measured
// over randomized protocol runs.
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/aspen/generator.h"
#include "src/fault/chaos.h"
#include "src/fault/seed.h"
#include "src/obs/obs.h"
#include "src/routing/updown.h"
#include "src/topo/link_state.h"
#include "src/topo/topology.h"

namespace aspen {
namespace {

// ---- MetricsRegistry units ---------------------------------------------

const obs::Counter kCounterA{"a"};
const obs::Counter kCounterB{"b"};
const obs::Counter kCounterZ{"z.counter"};
const obs::Counter kCounterDotA{"a.counter"};

TEST(MetricsRegistry, CountersAccumulate) {
  obs::MetricsRegistry registry;
  EXPECT_TRUE(registry.empty());
  registry.add(kCounterA);
  registry.add(kCounterA, 4);
  registry.add(kCounterB, 2);
  EXPECT_EQ(registry.counter("a"), 5u);
  EXPECT_EQ(registry.counter("b"), 2u);
  EXPECT_EQ(registry.counter("missing"), 0u);
  EXPECT_FALSE(registry.empty());
  registry.reset();
  EXPECT_TRUE(registry.empty());
  EXPECT_EQ(registry.counter("a"), 0u);
}

TEST(MetricsRegistry, GaugesLastWriteWins) {
  obs::MetricsRegistry registry;
  registry.set_gauge("g", 1.5);
  registry.set_gauge("g", -2.25);
  EXPECT_DOUBLE_EQ(registry.gauge("g"), -2.25);
  EXPECT_DOUBLE_EQ(registry.gauge("missing"), 0.0);
}

TEST(MetricsRegistry, HistogramBucketsPlaceOnInclusiveUpperBounds) {
  obs::MetricsRegistry registry;
  registry.register_histogram("h", {1.0, 10.0});
  for (const double v : {0.5, 1.0, 1.5, 10.0, 11.0}) registry.observe("h", v);
  const obs::HistogramData* h = registry.histogram("h");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->counts.size(), 3u);
  EXPECT_EQ(h->counts[0], 2u);  // 0.5, 1.0 — bounds are inclusive
  EXPECT_EQ(h->counts[1], 2u);  // 1.5, 10.0
  EXPECT_EQ(h->counts[2], 1u);  // 11.0 → +inf bucket
  EXPECT_EQ(h->count, 5u);
  EXPECT_DOUBLE_EQ(h->sum, 0.5 + 1.0 + 1.5 + 10.0 + 11.0);
}

TEST(MetricsRegistry, ObserveAutoRegistersDefaultBounds) {
  obs::MetricsRegistry registry;
  registry.observe("auto", 3.0);
  const obs::HistogramData* h = registry.histogram("auto");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->bounds, obs::default_histogram_bounds());
  EXPECT_EQ(h->counts.size(), h->bounds.size() + 1);
}

TEST(MetricsRegistry, ToJsonIsValidAndSorted) {
  obs::MetricsRegistry registry;
  registry.add(kCounterZ, 3);
  registry.add(kCounterDotA, 1);
  registry.set_gauge("g\"quoted", 0.5);
  registry.observe("lat", 2.0);
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"a.counter\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"z.counter\": 3"), std::string::npos);
  EXPECT_LT(json.find("a.counter"), json.find("z.counter"));
  EXPECT_NE(json.find("\"g\\\"quoted\""), std::string::npos);
  EXPECT_NE(json.find("\"le\": \"inf\""), std::string::npos);
}

// ---- Tracer units ------------------------------------------------------

TEST(Tracer, RingEvictsOldestAndKeepsSequenceNumbers) {
  obs::Tracer tracer(4);
  for (std::uint32_t i = 0; i < 6; ++i) {
    tracer.emit(static_cast<double>(i), obs::TraceKind::kMsgSend, i, 0, 0,
                "t");
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.total_emitted(), 6u);
  EXPECT_EQ(tracer.dropped(), 2u);
  const std::vector<obs::TraceRecord> records = tracer.records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().seq, 2u);  // oldest two evicted
  EXPECT_EQ(records.back().seq, 5u);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.total_emitted(), 0u);
}

TEST(Tracer, JsonlFormatIsStable) {
  obs::Tracer tracer(8);
  tracer.emit(1.5, obs::TraceKind::kLinkFail, 7, 0, 42, "anp");
  EXPECT_EQ(tracer.to_jsonl(),
            "{\"seq\":0,\"t_ms\":1.500000,\"kind\":\"link_fail\",\"a\":7,"
            "\"b\":0,\"value\":42,\"detail\":\"anp\"}\n");
}

TEST(Tracer, BinaryRoundTrip) {
  obs::Tracer tracer(16);
  tracer.emit(0.0, obs::TraceKind::kRun, 0, 0, 9, "start");
  tracer.emit(2.25, obs::TraceKind::kMsgSend, 3, 4, 5, "anp");
  tracer.emit(2.25, obs::TraceKind::kMsgSend, 3, 5, 5, "anp");  // interned
  tracer.emit(9.0, obs::TraceKind::kChaosCheck, 64, 0, 1, "");
  const std::string binary = tracer.to_binary();
  std::vector<obs::OwnedTraceRecord> decoded;
  ASSERT_TRUE(obs::read_binary(binary, decoded));
  ASSERT_EQ(decoded.size(), 4u);
  EXPECT_EQ(decoded[0].detail, "start");
  EXPECT_EQ(decoded[1].seq, 1u);
  EXPECT_EQ(decoded[1].b, 4u);
  EXPECT_DOUBLE_EQ(decoded[1].t_ms, 2.25);
  EXPECT_EQ(decoded[2].detail, "anp");
  EXPECT_EQ(decoded[3].kind, obs::TraceKind::kChaosCheck);
}

TEST(Tracer, BinaryRejectsCorruptInput) {
  obs::Tracer tracer(8);
  tracer.emit(0.0, obs::TraceKind::kRun, 0, 0, 0, "x");
  const std::string binary = tracer.to_binary();
  std::vector<obs::OwnedTraceRecord> decoded;
  EXPECT_FALSE(obs::read_binary("BADMAGIC" + binary.substr(8), decoded));
  EXPECT_TRUE(decoded.empty());
  EXPECT_FALSE(obs::read_binary(binary.substr(0, binary.size() - 3), decoded));
  EXPECT_FALSE(obs::read_binary("", decoded));
}

// ---- ObsConfig / gating ------------------------------------------------

const obs::Counter kShouldNotExist{"should.not.exist"};
const obs::Counter kInner{"inner"};
const obs::Counter kKept{"kept"};

TEST(ObsConfig, DisabledEmissionIsANoOp) {
  obs::ObsConfig off;  // defaults: everything disabled
  const obs::ScopedObs scoped(off);
  obs::count(kShouldNotExist);
  obs::observe("nor.this", 1.0);
  obs::trace_event(0.0, obs::TraceKind::kRun, 0, 0, 0, "ignored");
  EXPECT_TRUE(obs::metrics().empty());
  EXPECT_EQ(obs::tracer().size(), 0u);
}

TEST(ObsConfig, ScopedObsRestoresAndClears) {
  obs::ObsConfig on;
  on.metrics = true;
  on.trace = true;
  {
    const obs::ScopedObs scoped(on);
    EXPECT_TRUE(obs::metrics_enabled());
    EXPECT_TRUE(obs::trace_enabled());
    obs::count(kInner);
    obs::trace_event(0.0, obs::TraceKind::kRun, 0, 0, 0, "inner");
    EXPECT_EQ(obs::metrics().counter("inner"), 1u);
    EXPECT_EQ(obs::tracer().size(), 1u);
  }
  EXPECT_FALSE(obs::metrics_enabled());
  EXPECT_FALSE(obs::trace_enabled());
  EXPECT_TRUE(obs::metrics().empty());
  EXPECT_EQ(obs::tracer().size(), 0u);
}

TEST(ObsConfig, PauseObsSuppressesEmissionButKeepsData) {
  obs::ObsConfig on;
  on.metrics = true;
  on.trace = true;
  const obs::ScopedObs scoped(on);
  obs::count(kKept);
  obs::trace_event(0.0, obs::TraceKind::kRun, 0, 0, 0, "kept");
  {
    const obs::PauseObs quiet;
    EXPECT_FALSE(obs::metrics_enabled());
    EXPECT_FALSE(obs::trace_enabled());
    obs::count(kKept);  // swallowed: emission is paused
    obs::trace_event(0.0, obs::TraceKind::kRun, 0, 0, 0, "ignored");
  }
  // Flags restored, and the data collected before the pause survived.
  EXPECT_TRUE(obs::metrics_enabled());
  EXPECT_TRUE(obs::trace_enabled());
  EXPECT_EQ(obs::metrics().counter("kept"), 1u);
  EXPECT_EQ(obs::tracer().size(), 1u);
}

// ---- Property: channel copy conservation -------------------------------
//
// channel.sent_total counts physical copies: each attempt contributes its
// one copy (even when the wire eats it) plus one per duplicated extra, so
//     delivered + dropped == sent_total == attempted + duplicated_extra
// must hold after any run, lossy or not.
void expect_channel_conservation(const char* label) {
  const obs::MetricsRegistry& m = obs::metrics();
  const std::uint64_t sent = m.counter("channel.sent_total");
  EXPECT_EQ(m.counter("channel.delivered") + m.counter("channel.dropped"),
            sent)
      << label;
  EXPECT_EQ(m.counter("channel.attempted") +
                m.counter("channel.duplicated_extra"),
            sent)
      << label;
  EXPECT_LE(m.counter("channel.health_dropped"), m.counter("channel.dropped"))
      << label;
}

TEST(ObsProperty, ChannelConservationOverRandomCampaigns) {
  struct Tree {
    int n;
    int k;
    const char* ftv;
  };
  const Tree trees[] = {{4, 6, "<0,2,0>"}, {4, 4, "<1,0,0>"}, {3, 4, "<1,0>"}};
  std::mt19937_64 rng(20260807);
  for (const Tree& t : trees) {
    const Topology topo = Topology::build(
        generate_tree(t.n, t.k, FaultToleranceVector::parse(t.ftv)));
    for (int round = 0; round < 2; ++round) {
      ChaosOptions options;
      options.seed = rng();
      options.num_events = 8;
      options.check_flows = 32;
      const bool lossy = round == 1;
      if (lossy) {
        options.delays.channel.drop_rate = 0.1;
        options.delays.channel.duplicate_rate = 0.025;
        options.delays.channel.reliable = true;
        options.delays.channel.seed =
            fault::derive_stream_seed(options.seed, fault::kStreamChannel);
      }
      obs::ObsConfig config;
      config.metrics = true;
      const obs::ScopedObs scoped(config);
      const ChaosOutcome outcome = run_chaos_campaign(
          round == 0 ? ProtocolKind::kLsp : ProtocolKind::kAnp, topo,
          options);
      EXPECT_TRUE(outcome.tables_restored) << t.ftv;
      expect_channel_conservation(t.ftv);
      if (lossy) {
        // The registry agrees with the campaign's own accounting.
        EXPECT_EQ(obs::metrics().counter("channel.dropped"),
                  outcome.channel_dropped);
        EXPECT_EQ(obs::metrics().counter("channel.duplicated_extra"),
                  outcome.channel_duplicated);
      }
    }
  }
}

// ---- Property: incremental routing row accounting ----------------------
//
// On single-link churn, every destination row is fully recomputed,
// patched, or untouched; escalated rows are a subset of the full ones.
// The registry's running totals must agree with the per-call stats.
TEST(ObsProperty, RoutingRowAccountingOnLinkChurn) {
  std::mt19937_64 rng(424242);
  for (const char* ftv : {"<0,2,0>", "<2,0,0>", "<0,2,2>"}) {
    const Topology topo =
        Topology::build(generate_tree(4, 6, FaultToleranceVector::parse(ftv)));
    LinkStateOverlay overlay(topo);

    obs::ObsConfig config;
    config.metrics = true;
    const obs::ScopedObs scoped(config);

    RoutingState state =
        compute_updown_routes(topo, overlay, DestGranularity::kEdge);
    const std::uint64_t base_full =
        obs::metrics().counter("routing.rows_full_recompute");

    std::uint64_t sum_full = 0;
    std::uint64_t sum_escalated = 0;
    std::uint64_t sum_patched = 0;
    std::uint64_t patches = 0;
    const std::span<const LinkId> candidates = topo.links_at_level(2);
    ASSERT_FALSE(candidates.empty());
    for (int round = 0; round < 6; ++round) {
      const LinkId link =
          candidates[rng() % candidates.size()];
      const bool fail = overlay.is_up(link);
      if (fail) {
        overlay.fail(link);
      } else {
        overlay.recover(link);
      }
      const LinkId changed[] = {link};
      const RecomputeStats stats =
          recompute_updown_routes(topo, overlay, state, changed);
      EXPECT_LE(stats.escalated_rows, stats.full_rows) << ftv;
      EXPECT_EQ(stats.full_rows + stats.untouched_rows(), stats.total_dests)
          << ftv;
      EXPECT_LE(stats.patched_switches,
                stats.untouched_rows() + stats.full_rows)
          << ftv;
      sum_full += stats.full_rows;
      sum_escalated += stats.escalated_rows;
      sum_patched += stats.patched_switches;
      ++patches;

      // The patched state matches a from-scratch recompute.
      const RoutingState fresh =
          compute_updown_routes(topo, overlay, DestGranularity::kEdge);
      ASSERT_EQ(fresh.tables.size(), state.tables.size());
      for (std::size_t s = 0; s < fresh.tables.size(); ++s) {
        ASSERT_TRUE(RoutingTables::switch_equal(fresh.tables, state.tables, s))
            << ftv << " sw " << s;
      }
    }

    const obs::MetricsRegistry& m = obs::metrics();
    EXPECT_EQ(m.counter("routing.incremental_patches"), patches);
    EXPECT_EQ(m.counter("routing.rows_escalated"), sum_escalated);
    EXPECT_EQ(m.counter("routing.rows_patched"), sum_patched);
    // rows_full_recompute accumulates the initial full computes (the churn
    // loop's verification recomputes included) plus each patch's full rows.
    EXPECT_EQ(m.counter("routing.rows_full_recompute"),
              base_full * 7 + sum_full);
  }
}

}  // namespace
}  // namespace aspen
