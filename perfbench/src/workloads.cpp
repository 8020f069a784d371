#include "workloads.h"

#include <algorithm>
#include <utility>

#include "src/analysis/survivability.h"
#include "src/aspen/ftv.h"
#include "src/aspen/generator.h"
#include "src/fault/chaos.h"
#include "src/fault/failure_domains.h"
#include "src/fault/seed.h"
#include "src/serve/driver.h"
#include "src/traffic/flow_plane.h"

namespace perfbench {

const std::vector<std::string>& timed_counter_names() {
  static const std::vector<std::string> names = {
      "lsp.lsa_installs", "sim.events_dispatched",
      "routing.rows_full_recompute", "routing.rows_patched"};
  return names;
}

namespace {

using aspen::ProtocolKind;
using aspen::Topology;

struct TreeSpec {
  int n;
  int k;
  const char* ftv;
};

std::unique_ptr<Topology> build_tree(const TreeSpec& spec, Spans& spans) {
  const ScopedSpan span(spans, "topo.build");
  return std::make_unique<Topology>(Topology::build(aspen::generate_tree(
      spec.n, spec.k, aspen::FaultToleranceVector::parse(spec.ftv))));
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// Why a campaign's own invariants failed, or "" when they held.
std::string campaign_failure(const aspen::ChaosOutcome& o) {
  std::string why;
  if (!o.tables_restored) why += " tables-not-restored";
  if (o.ground_truth_violations > 0) why += " ground-truth-violations";
  if (!o.all_quiesced) why += " unquiesced";
  return why;
}

/// Chaos accounting summed over rounds; the protocol per-layer metrics are
/// per reaction (every fault and every recovery, the unwind included).
struct ChaosTotals {
  std::uint64_t reactions = 0;
  std::uint64_t messages = 0;

  void add(const aspen::ChaosOutcome& o) {
    reactions += o.link_failures + o.link_recoveries + o.switch_crashes +
                 o.switch_recoveries;
    messages += o.messages;
  }

  void report(const TimedTotals& t, Metrics& out) const {
    out["proto.msgs_per_op"] = ratio(messages, reactions);
    out["proto.lsa_installs_per_op"] =
        ratio(t.counter("lsp.lsa_installs"), reactions);
    out["sim.events_per_op"] =
        ratio(t.counter("sim.events_dispatched"), reactions);
  }
};

/// Routing rows per op, from the engine's own obs counters.
void report_rows(const TimedTotals& t, Metrics& out) {
  out["routing.rows_full_per_op"] =
      ratio(t.counter("routing.rows_full_recompute"), t.ops);
  out["routing.rows_patched_per_op"] =
      ratio(t.counter("routing.rows_patched"), t.ops);
}

std::uint64_t outcome_fingerprint(const aspen::ChaosOutcome& o) {
  std::uint64_t h = 0;
  for (const std::uint64_t v :
       {o.link_failures, o.link_recoveries, o.switch_crashes,
        o.switch_recoveries, o.compound_runs, o.messages, o.checks,
        o.checked_flows, o.ground_truth_violations, o.protocol_shortfall,
        std::uint64_t{o.tables_restored}, std::uint64_t{o.all_quiesced}}) {
    h = mix64(h, v);
  }
  return h;
}

// ---- flows: the ANP data plane at paper scale ----------------------------

class FlowsWorkload final : public Workload {
 public:
  explicit FlowsWorkload(Size size)
      : tree_(size == Size::kFull ? TreeSpec{4, 16, "<0,0,0>"}
                                  : TreeSpec{3, 4, "<0,0>"}),
        events_(size == Size::kFull ? 24 : 6),
        total_flows_(size == Size::kFull ? 1'200'000 : 6'000) {}

  int pool() const override { return 2; }

  // `aspen flows <tree> anp <total_flows> <events> <seed>`'s option set.
  void setup(std::uint64_t seed, Spans& spans) override {
    topo_ = build_tree(tree_, spans);
    aspen::ChaosOptions chaos;
    chaos.seed = seed;
    chaos.num_events = events_;
    chaos.check_flows = 32;
    aspen::FlowPlaneOptions plane;
    plane.policy = aspen::NextHopPolicy::kSeededHash;
    plane.base_seed =
        aspen::fault::derive_stream_seed(seed, aspen::fault::kStreamFlowEcmp);
    {
      const ScopedSpan span(spans, "fault.ctor");
      campaign_ = std::make_unique<aspen::fault::ChaosCampaign>(
          ProtocolKind::kAnp, *topo_, chaos);
    }
    const ScopedSpan span(spans, "traffic.plane_ctor");
    plane_ = std::make_unique<aspen::FlowPlane>(*topo_, plane);
  }

  // run_flow_chaos's loop, with a span around every library call.
  RoundOutcome run(Spans& spans) override {
    aspen::fault::ChaosCampaign& campaign = *campaign_;
    aspen::FlowPlane& plane = *plane_;
    const auto batches = static_cast<std::uint64_t>(events_) + 1;
    const std::uint64_t per_batch = total_flows_ / batches;
    const auto admit = [&](std::uint64_t count) {
      const ScopedSpan span(spans, "traffic.admit");
      plane.admit_uniform(count);
    };
    const auto step = [&] {
      const ScopedSpan span(spans, "traffic.step");
      walks_ += plane
                    .step(campaign.protocol().tables(), campaign.overlay(),
                          static_cast<double>(plane.epochs()))
                    .attempted;
    };
    admit(per_batch + total_flows_ % batches);
    step();
    for (int a = 0; a < events_; ++a) {
      {
        const ScopedSpan span(spans, "fault.advance");
        campaign.advance();
      }
      admit(per_batch);
      step();
    }
    {
      const ScopedSpan span(spans, "fault.finish");
      campaign.finish();
    }
    for (int i = 0; i < kDrainEpochs && plane.inflight() > 0; ++i) step();

    const aspen::ChaosOutcome& chaos = campaign.outcome();
    chaos_.add(chaos);
    RoundOutcome out;
    out.ops = plane.admitted();
    out.identity_ok =
        plane.admitted() == plane.delivered() + plane.lost() + plane.inflight();
    if (!out.identity_ok) out.note = " admitted!=delivered+lost+inflight";
    const std::string why = campaign_failure(chaos);
    if (!why.empty()) {
      out.failed = out.ops;
      out.note += why;
    }
    out.fingerprint = outcome_fingerprint(chaos);
    for (const std::uint64_t v :
         {plane.fate_fingerprint(), plane.admitted(), plane.delivered(),
          plane.lost(), plane.inflight()}) {
      out.fingerprint = mix64(out.fingerprint, v);
    }
    return out;
  }

  void teardown() override {
    plane_.reset();
    campaign_.reset();
  }

  void layer_metrics(const TimedTotals& t, const Spans& spans,
                     Metrics& out) const override {
    chaos_.report(t, out);
    report_rows(t, out);
    double step_s = 0.0;
    for (const double d : spans.durations("traffic.step")) step_s += d;
    out["traffic.walks_per_s"] =
        step_s > 0.0 ? static_cast<double>(walks_) / step_s : 0.0;
  }

  const Topology& topology() const override { return *topo_; }

 private:
  static constexpr int kDrainEpochs = 8;  // FlowChaosOptions::drain_epochs

  TreeSpec tree_;
  int events_;
  std::uint64_t total_flows_;
  std::unique_ptr<Topology> topo_;
  std::unique_ptr<aspen::fault::ChaosCampaign> campaign_;
  std::unique_ptr<aspen::FlowPlane> plane_;
  ChaosTotals chaos_;
  std::uint64_t walks_ = 0;
};

// ---- control: LSP reactions on a memory-bound tree ------------------------
//
// An op is one reaction, so every op must be the same kind of work: the
// schedule has link faults and recoveries only (an LSP switch-crash
// reaction floods 6-12x the messages of a link reaction, so the crash mix
// of a seed swung reactions/s by 25-40%), and no physics checks (their
// ground-truth recompute is per check, not per reaction).  k=12 rather
// than k=16 gives ~110 reactions per 10 s run instead of ~10, enough for
// the per-link-level cost differences to average out; its routing state
// (~42 MB) is still far beyond the caches.

class ControlWorkload final : public Workload {
 public:
  explicit ControlWorkload(Size size)
      : tree_(size == Size::kFull ? TreeSpec{4, 12, "<0,0,0>"}
                                  : TreeSpec{4, 4, "<0,1,0>"}),
        events_(size == Size::kFull ? 4 : 6) {}

  int pool() const override { return 2; }

  // `aspen chaos <tree> lsp <events> 0 <seed>`'s option set, less switch
  // crashes and consistency checks.
  void setup(std::uint64_t seed, Spans& spans) override {
    topo_ = build_tree(tree_, spans);
    aspen::ChaosOptions chaos;
    chaos.seed = seed;
    chaos.num_events = events_;
    chaos.delays.channel.seed =
        aspen::fault::derive_stream_seed(seed, aspen::fault::kStreamChannel);
    chaos.p_switch_crash = 0.0;
    chaos.check_flows = 0;
    const ScopedSpan span(spans, "fault.ctor");
    campaign_ = std::make_unique<aspen::fault::ChaosCampaign>(
        ProtocolKind::kLsp, *topo_, chaos);
  }

  RoundOutcome run(Spans& spans) override {
    for (int a = 0; a < events_; ++a) {
      const ScopedSpan span(spans, "fault.advance");
      campaign_->advance();
    }
    {
      const ScopedSpan span(spans, "fault.finish");
      campaign_->finish();
    }
    const aspen::ChaosOutcome& chaos = campaign_->outcome();
    const std::uint64_t reactions_before = chaos_.reactions;
    chaos_.add(chaos);
    RoundOutcome out;
    out.ops = chaos_.reactions - reactions_before;
    out.note = campaign_failure(chaos);
    if (!out.note.empty()) out.failed = out.ops;
    out.fingerprint = outcome_fingerprint(chaos);
    return out;
  }

  void teardown() override { campaign_.reset(); }

  void layer_metrics(const TimedTotals& t, const Spans& /*spans*/,
                     Metrics& out) const override {
    chaos_.report(t, out);
    report_rows(t, out);
  }

  const Topology& topology() const override { return *topo_; }

 private:
  TreeSpec tree_;
  int events_;
  std::unique_ptr<Topology> topo_;
  std::unique_ptr<aspen::fault::ChaosCampaign> campaign_;
  ChaosTotals chaos_;
};

// ---- survive: Monte Carlo survivability on warm incremental routing -------

class SurviveWorkload final : public Workload {
 public:
  explicit SurviveWorkload(Size size)
      : tree_(size == Size::kFull ? TreeSpec{4, 8, "<0,1,0>"}
                                  : TreeSpec{3, 4, "<0,0>"}),
        samples_(size == Size::kFull ? 1000 : 200),
        warmup_samples_(size == Size::kFull ? 64 : 16) {}

  int pool() const override { return 2; }

  // `aspen --seed=<seed> survive <tree> <samples> independent 32`, with the
  // library's threads option on auto so it follows the pinned pool.  The
  // set-up ends with one untimed warm-up campaign: worker sessions, pool
  // start and allocator arenas are paid there, not in the timed phase.
  void setup(std::uint64_t seed, Spans& spans) override {
    topo_ = build_tree(tree_, spans);
    domains_ = std::make_unique<aspen::fault::FailureDomainModel>(
        aspen::fault::FailureDomainModel::independent(*topo_));
    options_ = aspen::SurvivabilityOptions{};
    options_.seed = seed;
    options_.max_steps = 32;
    options_.threads = 0;
    options_.samples = warmup_samples_;
    const ScopedSpan span(spans, "analysis.warmup");
    (void)aspen::run_survivability(*topo_, *domains_, options_);
  }

  RoundOutcome run(Spans& spans) override {
    options_.samples = samples_;
    aspen::SurvivabilityResult result;
    {
      const ScopedSpan span(spans, "analysis.survivability");
      result = aspen::run_survivability(*topo_, *domains_, options_);
    }
    const aspen::SurvivabilityAccumulators& acc = result.acc;
    acc_.merge(acc);
    RoundOutcome out;
    out.ops = result.samples;
    out.failed = acc.quarantined + acc.rollback_rebuilds;
    if (out.failed > 0) out.note = " quarantined-or-rebuilt-trials";
    out.identity_ok = result.samples == samples_ &&
                      acc.committed_samples ==
                          acc.disconnected_samples + acc.censored_samples;
    if (!out.identity_ok) out.note += " trial-accounting-broken";
    out.fingerprint = acc.fingerprint();
    return out;
  }

  void layer_metrics(const TimedTotals& t, const Spans& /*spans*/,
                     Metrics& out) const override {
    // The engine's obs counters are paused inside the sharded trials; the
    // accumulators carry the same row accounting.
    out["routing.rows_full_per_op"] = ratio(acc_.incremental_full_rows, t.ops);
    out["routing.rows_patched_per_op"] =
        ratio(acc_.incremental_patched_switches, t.ops);
    out["analysis.steps_per_op"] = ratio(acc_.sum_steps, t.ops);
    out["analysis.quarantined"] = static_cast<double>(acc_.quarantined);
    out["analysis.rollback_rebuilds"] =
        static_cast<double>(acc_.rollback_rebuilds);
  }

  const Topology& topology() const override { return *topo_; }

 private:
  TreeSpec tree_;
  std::uint64_t samples_;
  std::uint64_t warmup_samples_;
  std::unique_ptr<Topology> topo_;
  std::unique_ptr<aspen::fault::FailureDomainModel> domains_;
  aspen::SurvivabilityOptions options_;
  aspen::SurvivabilityAccumulators acc_;
};

// ---- serve: the what-if query service under live chaos --------------------

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(Size size)
      : queries_(size == Size::kFull ? 10'000 : 300),
        warmup_queries_(size == Size::kFull ? 500 : 50) {}

  int pool() const override { return 1; }

  // bench_serve's headline campaign (X13) on the Fig. 3 tree, with a 2%
  // client-channel drop: at the 15% of X13 the 5-retry cap gives up on
  // about 5 queries in 10^4, and a benchmark workload must not fail ops.
  // Set-up ends with one small untimed campaign as the warm-up op.
  void setup(std::uint64_t seed, Spans& spans) override {
    topo_ = build_tree(TreeSpec{4, 6, "<0,0,2>"}, spans);
    seed_ = seed;
    const ScopedSpan span(spans, "serve.warmup");
    (void)aspen::serve::run_serve_under_chaos(ProtocolKind::kAnp, *topo_,
                                              options(warmup_queries_));
  }

  RoundOutcome run(Spans& spans) override {
    aspen::serve::ServeChaosReport report;
    {
      const ScopedSpan span(spans, "serve.campaign");
      report = aspen::serve::run_serve_under_chaos(ProtocolKind::kAnp, *topo_,
                                                   options(queries_));
    }
    chaos_.add(report.chaos);
    hits_ += report.cache_hits;
    misses_ += report.cache_misses;
    retransmits_ += report.clients.retransmits;
    replays_ += report.server.duplicate_replays;
    checkpoints_ = std::move(report.checkpoints);

    RoundOutcome out;
    out.ops = report.clients.submitted;
    out.identity_ok = out.ops == static_cast<std::uint64_t>(queries_) &&
                      report.server.completed == report.server.admitted;
    if (!out.identity_ok) out.note = " submitted-or-completed-mismatch";
    out.failed = std::min(
        out.ops, out.ops - std::min(out.ops, report.answered) +
                     report.audit_mismatches);
    if (out.failed > 0) out.note += " unanswered-or-audit-mismatch";
    const std::string why = campaign_failure(report.chaos);
    if (!why.empty()) {
      out.failed = out.ops;
      out.note += why;
    }
    out.fingerprint = report.fingerprint();
    return out;
  }

  void layer_metrics(const TimedTotals& t, const Spans& /*spans*/,
                     Metrics& out) const override {
    chaos_.report(t, out);
    report_rows(t, out);
    out["serve.cache_hit_ratio"] = ratio(hits_, hits_ + misses_);
    out["serve.retransmits_per_op"] = ratio(retransmits_, t.ops);
    out["serve.replays_per_op"] = ratio(replays_, t.ops);
  }

  const Topology& topology() const override { return *topo_; }
  const std::vector<std::string>* checkpoints() const override {
    return &checkpoints_;
  }

 private:
  [[nodiscard]] aspen::serve::ServeChaosOptions options(int queries) const {
    aspen::serve::ServeChaosOptions o;
    o.chaos.seed = seed_;
    o.chaos.num_events = 40;
    o.chaos.check_flows = 64;
    o.num_queries = queries;
    o.num_clients = 8;
    o.threads = 0;
    o.action_every_ms = static_cast<double>(queries) *
                        o.query_interarrival_ms /
                        static_cast<double>(o.chaos.num_events + 1);
    o.checkpoint_every = std::max(1, queries / 6);
    o.client.channel.drop_rate = 0.02;
    o.client.channel.duplicate_rate = 0.005;
    o.client.channel.jitter_ms = 0.3;
    return o;
  }

  int queries_;
  int warmup_queries_;
  std::uint64_t seed_ = 0;
  std::unique_ptr<Topology> topo_;
  ChaosTotals chaos_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t replays_ = 0;
  std::vector<std::string> checkpoints_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, Size size) {
  if (name == "flows") return std::make_unique<FlowsWorkload>(size);
  if (name == "control") return std::make_unique<ControlWorkload>(size);
  if (name == "survive") return std::make_unique<SurviveWorkload>(size);
  if (name == "serve") return std::make_unique<ServeWorkload>(size);
  return nullptr;
}

}  // namespace perfbench
