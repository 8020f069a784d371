// Experiment X9 (extension; tentpole) — detection latency vs probe cost.
//
// The paper charges zero time between a link dying and its endpoints
// reacting.  A BFD-style detector makes that time explicit: N-of-M lost
// probes confirm a failure, so the confirm latency scales with the probe
// interval and — on gray links — inversely with the loss rate.  This bench
// sweeps probe interval × gray-loss rate, then runs the full pipeline
// (detect → react) for both protocols so the vulnerability window can be
// read as true loss-inducing time, and finally measures what flap damping
// buys when a link thrashes.
//
// Output is JSON (one document on stdout), chaos_loss.cpp idiom.  Every
// flapping run must end with restored tables and a clean detector audit.
#include <cstdio>
#include <vector>

#include "bench/paper/experiments.h"
#include "src/obs/obs.h"
#include "src/aspen/generator.h"
#include "src/fault/detector.h"
#include "src/proto/experiment.h"
#include "src/topo/link_state.h"

namespace {

using namespace aspen;

constexpr SimTime kSweepHorizonMs = 10'000.0;

void print_sweep_point(LinkId link, const Topology& topo, double interval,
                       double loss, bool trailing_comma) {
  fault::DetectorOptions options;
  options.probe_interval_ms = interval;
  LinkHealthState fault_state;
  fault_state.health = LinkHealth::kGray;
  fault_state.loss_rate = loss;
  const fault::DetectionOutcome det = fault::measure_detection(
      topo, link, fault_state, options, kSweepHorizonMs);
  std::printf("      {\n");
  std::printf("        \"probe_interval_ms\": %.1f,\n", interval);
  std::printf("        \"gray_loss\": %.2f,\n", loss);
  std::printf("        \"confirm_bound_ms\": %.1f,\n",
              options.confirm_bound_ms());
  std::printf("        \"suspect_ms\": %.3f,\n", det.suspect_latency_ms);
  std::printf("        \"confirm_ms\": %.3f,\n", det.confirm_latency_ms);
  std::printf("        \"confirmed\": %s,\n",
              det.confirmed() ? "true" : "false");
  std::printf("        \"probes_sent\": %llu,\n",
              static_cast<unsigned long long>(det.stats.probes_sent));
  std::printf("        \"probes_lost\": %llu\n",
              static_cast<unsigned long long>(det.stats.probes_lost));
  std::printf("      }%s\n", trailing_comma ? "," : "");
}

void print_pipeline(ProtocolKind kind, const Topology& topo, LinkId link,
                    double loss, bool trailing_comma) {
  fault::DetectorOptions options;
  LinkHealthState fault_state;
  fault_state.health = LinkHealth::kGray;
  fault_state.loss_rate = loss;
  const fault::DetectedFailureResult run =
      fault::run_detected_failure(kind, topo, link, fault_state, options);
  std::printf("      {\n");
  std::printf("        \"protocol\": \"%s\",\n", to_cstring(kind));
  std::printf("        \"gray_loss\": %.2f,\n", loss);
  std::printf("        \"detect_ms\": %.3f,\n",
              run.detection.confirm_latency_ms);
  std::printf("        \"react_ms\": %.3f,\n",
              run.reaction.convergence_time_ms - run.reaction.detection_ms);
  std::printf("        \"loss_inducing_ms\": %.3f,\n",
              run.reaction.convergence_time_ms);
  std::printf("        \"messages\": %llu\n",
              static_cast<unsigned long long>(run.reaction.messages_sent));
  std::printf("      }%s\n", trailing_comma ? "," : "");
}

/// Prints one flapping run; true when its tables were restored and the
/// detector audit found nothing.
bool print_flap(ProtocolKind kind, const Topology& topo, LinkId link,
                bool damped, bool trailing_comma) {
  fault::DetectorOptions options;
  options.damping.enabled = damped;
  const fault::FlapScenarioResult flap = fault::run_flap_scenario(
      kind, topo, link, /*period_ms=*/400.0, /*duty=*/0.5, /*cycles=*/10,
      options);
  std::printf("      {\n");
  std::printf("        \"protocol\": \"%s\",\n", to_cstring(kind));
  std::printf("        \"damping\": %s,\n", damped ? "true" : "false");
  std::printf("        \"confirmed_transitions\": %llu,\n",
              static_cast<unsigned long long>(flap.confirmed_transitions));
  std::printf("        \"notifications\": %llu,\n",
              static_cast<unsigned long long>(flap.notifications));
  std::printf("        \"suppressed_transitions\": %llu,\n",
              static_cast<unsigned long long>(flap.suppressed_transitions));
  std::printf("        \"notification_bound\": %d,\n",
              flap.notification_bound);
  std::printf("        \"table_changes\": %llu,\n",
              static_cast<unsigned long long>(flap.table_changes));
  std::printf("        \"messages\": %llu,\n",
              static_cast<unsigned long long>(flap.messages));
  std::printf("        \"reaction_time_ms\": %.3f,\n", flap.reaction_time_ms);
  std::printf("        \"audit_violations\": %llu,\n",
              static_cast<unsigned long long>(flap.audit.findings.size()));
  std::printf("        \"tables_restored\": %s\n",
              flap.tables_restored ? "true" : "false");
  std::printf("      }%s\n", trailing_comma ? "," : "");
  return flap.tables_restored && flap.audit.findings.empty();
}

}  // namespace

bool aspen::bench::detection() {
  const int n = 3;
  const int k = 4;
  const Topology topo =
      Topology::build(generate_tree(n, k, FaultToleranceVector({1, 0})));
  const LinkId link = topo.links_at_level(2)[0];
  const fault::DetectorOptions defaults;

  std::printf("{\n");
  std::printf("  \"experiment\": \"detection_latency\",\n");
  std::printf("  \"topology\": {\"levels\": %d, \"k\": %d, \"ftv\": "
              "\"<1,0>\", \"hosts\": %llu},\n",
              n, k, static_cast<unsigned long long>(topo.num_hosts()));
  std::printf("  \"detector\": {\"seed\": %llu, \"window\": %d, "
              "\"loss_threshold\": %d, \"recovery_threshold\": %d},\n",
              static_cast<unsigned long long>(defaults.seed),
              defaults.window, defaults.loss_threshold,
              defaults.recovery_threshold);

  std::printf("  \"sweep\": [\n");
  const std::vector<double> intervals{5.0, 10.0, 20.0, 50.0};
  const std::vector<double> losses{0.1, 0.3, 0.5, 0.9};
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    for (std::size_t l = 0; l < losses.size(); ++l) {
      print_sweep_point(link, topo, intervals[i], losses[l],
                        i + 1 < intervals.size() || l + 1 < losses.size());
    }
  }
  std::printf("  ],\n");

  std::printf("  \"pipeline\": [\n");
  print_pipeline(ProtocolKind::kLsp, topo, link, 0.3, true);
  print_pipeline(ProtocolKind::kAnp, topo, link, 0.3, false);
  std::printf("  ],\n");

  std::printf("  \"flapping\": [\n");
  bool ok = true;
  for (const ProtocolKind kind : {ProtocolKind::kAnp, ProtocolKind::kLsp}) {
    for (const bool damped : {true, false}) {
      const bool last = kind == ProtocolKind::kLsp && !damped;
      ok = print_flap(kind, topo, link, damped, !last) && ok;
    }
  }
  std::printf("  ],\n");

  std::printf("  \"metrics\":\n%s\n", obs::metrics().to_json(2).c_str());
  std::printf("}\n");
  return ok;
}
