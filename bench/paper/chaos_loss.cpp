// Experiment X8 (extension; tentpole) — control-plane loss-rate sweep.
//
// The paper's reaction protocols assume notifications and LSAs always
// arrive.  This sweep drops control messages with probability p (seeded,
// deterministic), turns on the ack/retransmit transport, and measures what
// reliability costs each protocol: convergence time and message overhead
// (including retransmissions) vs. drop rate, plus whether the lossy run
// still produced byte-identical forwarding tables to a lossless one.
//
// Output is JSON (one document on stdout) so downstream plotting needs no
// parser beyond the standard library.  A second section runs a full mixed
// chaos campaign per protocol at 10% drop as an end-to-end robustness
// check — see docs/CHAOS.md.  Lossy tables that differ from lossless ones,
// or a campaign ending unrestored or off ground truth, fail the experiment.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/paper/experiments.h"
#include "src/obs/obs.h"
#include "src/aspen/generator.h"
#include "src/fault/chaos.h"
#include "src/proto/experiment.h"
#include "src/routing/updown.h"
#include "src/sim/stats.h"

namespace {

using namespace aspen;

struct SweepPoint {
  ProtocolKind kind;
  double drop_rate = 0.0;
  std::uint64_t runs = 0;
  bool identical_tables = true;  ///< every lossy run matched lossless
  std::uint64_t gave_up = 0;
  Summary convergence_ms;
  Summary messages;
  Summary retransmits;
  Summary acks;
  Summary duplicates_dropped;
  Summary channel_dropped;
};

SweepPoint run_point(ProtocolKind kind, const Topology& topo,
                     std::span<const LinkId> victims, double drop_rate) {
  SweepPoint point;
  point.kind = kind;
  point.drop_rate = drop_rate;

  const AnpOptions anp{.notify_children = true, .adjacency_resync = false};
  for (const LinkId victim : victims) {
    auto lossless = make_protocol(kind, topo, DelayModel{}, anp);
    (void)lossless->simulate_link_failure(victim);

    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      DelayModel delays;
      delays.channel.drop_rate = drop_rate;
      delays.channel.duplicate_rate = drop_rate / 4.0;
      delays.channel.jitter_ms = 0.5;
      delays.channel.seed = seed;
      delays.channel.reliable = true;
      auto lossy = make_protocol(kind, topo, delays, anp);
      const FailureReport report = lossy->simulate_link_failure(victim);

      ++point.runs;
      point.gave_up += report.gave_up;
      point.convergence_ms.add(report.convergence_time_ms);
      point.messages.add(static_cast<double>(report.messages_sent));
      point.retransmits.add(static_cast<double>(report.retransmits));
      point.acks.add(static_cast<double>(report.acks_sent));
      point.duplicates_dropped.add(
          static_cast<double>(report.duplicates_dropped));
      point.channel_dropped.add(static_cast<double>(report.channel_dropped));
      if (switches_with_changed_tables(lossless->tables(), lossy->tables()) !=
          0) {
        point.identical_tables = false;
      }
    }
  }
  return point;
}

void print_summary(const char* key, const Summary& s, bool trailing_comma) {
  std::printf(
      "        \"%s\": {\"mean\": %.3f, \"min\": %.3f, \"max\": %.3f}%s\n",
      key, s.mean(), s.min(), s.max(), trailing_comma ? "," : "");
}

void print_point(const SweepPoint& point, bool trailing_comma) {
  std::printf("      {\n");
  std::printf("        \"protocol\": \"%s\",\n", to_cstring(point.kind));
  std::printf("        \"drop_rate\": %.2f,\n", point.drop_rate);
  std::printf("        \"runs\": %llu,\n",
              static_cast<unsigned long long>(point.runs));
  std::printf("        \"identical_tables\": %s,\n",
              point.identical_tables ? "true" : "false");
  std::printf("        \"gave_up\": %llu,\n",
              static_cast<unsigned long long>(point.gave_up));
  print_summary("convergence_ms", point.convergence_ms, true);
  print_summary("messages", point.messages, true);
  print_summary("retransmits", point.retransmits, true);
  print_summary("acks", point.acks, true);
  print_summary("duplicates_dropped", point.duplicates_dropped, true);
  print_summary("channel_dropped", point.channel_dropped, false);
  std::printf("      }%s\n", trailing_comma ? "," : "");
}

void print_campaign(ProtocolKind kind, const ChaosOutcome& outcome,
                    bool trailing_comma) {
  std::printf("      {\n");
  std::printf("        \"protocol\": \"%s\",\n", to_cstring(kind));
  std::printf("        \"link_failures\": %llu,\n",
              static_cast<unsigned long long>(outcome.link_failures));
  std::printf("        \"switch_crashes\": %llu,\n",
              static_cast<unsigned long long>(outcome.switch_crashes));
  std::printf("        \"compound_runs\": %llu,\n",
              static_cast<unsigned long long>(outcome.compound_runs));
  std::printf("        \"messages\": %llu,\n",
              static_cast<unsigned long long>(outcome.messages));
  std::printf("        \"retransmits\": %llu,\n",
              static_cast<unsigned long long>(outcome.retransmits));
  std::printf("        \"channel_dropped\": %llu,\n",
              static_cast<unsigned long long>(outcome.channel_dropped));
  std::printf("        \"checked_flows\": %llu,\n",
              static_cast<unsigned long long>(outcome.checked_flows));
  std::printf("        \"ground_truth_violations\": %llu,\n",
              static_cast<unsigned long long>(outcome.ground_truth_violations));
  std::printf("        \"protocol_shortfall\": %llu,\n",
              static_cast<unsigned long long>(outcome.protocol_shortfall));
  std::printf("        \"all_quiesced\": %s,\n",
              outcome.all_quiesced ? "true" : "false");
  std::printf("        \"tables_restored\": %s\n",
              outcome.tables_restored ? "true" : "false");
  std::printf("      }%s\n", trailing_comma ? "," : "");
}

}  // namespace

bool aspen::bench::chaos_loss() {
  const int n = 4;
  const int k = 4;
  const Topology topo =
      Topology::build(generate_tree(n, k, FaultToleranceVector({0, 1, 0})));

  // A victim per inter-switch level exercises both short (top-of-tree) and
  // long (aggregation) notification paths.
  std::vector<LinkId> victims;
  for (Level level = 2; level <= topo.levels(); ++level) {
    victims.push_back(topo.links_at_level(level)[0]);
  }

  const std::vector<double> drop_rates{0.0, 0.05, 0.10, 0.20};

  std::printf("{\n");
  std::printf("  \"experiment\": \"chaos_loss_sweep\",\n");
  std::printf("  \"topology\": {\"levels\": %d, \"k\": %d, \"ftv\": "
              "\"<0,1,0>\", \"hosts\": %llu},\n",
              n, k, static_cast<unsigned long long>(topo.num_hosts()));
  bool ok = true;
  std::printf("  \"sweep\": [\n");
  for (std::size_t p = 0; p < 2; ++p) {
    const ProtocolKind kind = p == 0 ? ProtocolKind::kLsp : ProtocolKind::kAnp;
    for (std::size_t d = 0; d < drop_rates.size(); ++d) {
      const SweepPoint point = run_point(kind, topo, victims, drop_rates[d]);
      print_point(point, p + 1 < 2 || d + 1 < drop_rates.size());
      ok = ok && point.identical_tables;
    }
  }
  std::printf("  ],\n");

  std::printf("  \"campaigns\": [\n");
  for (std::size_t p = 0; p < 2; ++p) {
    const ProtocolKind kind = p == 0 ? ProtocolKind::kLsp : ProtocolKind::kAnp;
    ChaosOptions options;
    options.seed = 2026;
    options.num_events = 60;
    options.delays.channel.drop_rate = 0.10;
    options.delays.channel.duplicate_rate = 0.02;
    options.delays.channel.jitter_ms = 0.5;
    options.delays.channel.seed = 11;
    options.delays.channel.reliable = true;
    const ChaosOutcome outcome = run_chaos_campaign(kind, topo, options);
    print_campaign(kind, outcome, p + 1 < 2);
    ok = ok && outcome.tables_restored && outcome.ground_truth_violations == 0;
  }
  std::printf("  ],\n");
  std::printf("  \"metrics\":\n%s\n", obs::metrics().to_json(2).c_str());
  std::printf("}\n");
  return ok;
}
