// Experiment X7 (extension; §10) — flapping links, through the detector.
//
// "Finally the study shows that link failures are sporadic and
//  short-lived, supporting our belief that such failures should not cause
//  global re-convergence."
//
// A single link flaps (period/duty square wave) and every protocol
// reaction is driven by the BFD-style detector's post-damping reports
// (src/fault/detector.h) instead of an oracle calling fail/recover
// directly.  Without damping every confirmed transition floods (LSP) or
// notifies (ANP); with damping the exponential penalty suppresses the
// storm after a bounded number of reports and reconciles once the link
// calms down.  Output is JSON (one document on stdout) comparing both
// protocols at several flap rates, damped and undamped.  Every run must
// end with restored tables and a clean detector audit.
#include <cstdio>
#include <vector>

#include "bench/paper/experiments.h"
#include "src/obs/obs.h"
#include "src/aspen/fixed_hosts.h"
#include "src/aspen/generator.h"
#include "src/fault/detector.h"
#include "src/proto/experiment.h"

namespace {

using namespace aspen;

/// Prints one run; true when its tables were restored and the detector
/// audit found nothing.
bool print_run(const char* fabric, ProtocolKind kind, const Topology& topo,
               SimTime period_ms, int cycles, bool damped,
               bool trailing_comma) {
  fault::DetectorOptions options;
  options.damping.enabled = damped;
  const fault::FlapScenarioResult flap = fault::run_flap_scenario(
      kind, topo, topo.links_at_level(2)[0], period_ms, /*duty=*/0.5, cycles,
      options);
  std::printf("    {\n");
  std::printf("      \"fabric\": \"%s\",\n", fabric);
  std::printf("      \"protocol\": \"%s\",\n", to_cstring(kind));
  std::printf("      \"flap_period_ms\": %.0f,\n", period_ms);
  std::printf("      \"cycles\": %d,\n", cycles);
  std::printf("      \"damping\": %s,\n", damped ? "true" : "false");
  std::printf("      \"confirmed_transitions\": %llu,\n",
              static_cast<unsigned long long>(flap.confirmed_transitions));
  std::printf("      \"notifications\": %llu,\n",
              static_cast<unsigned long long>(flap.notifications));
  std::printf("      \"suppressed_transitions\": %llu,\n",
              static_cast<unsigned long long>(flap.suppressed_transitions));
  std::printf("      \"notification_bound\": %d,\n", flap.notification_bound);
  std::printf("      \"protocol_messages\": %llu,\n",
              static_cast<unsigned long long>(flap.messages));
  std::printf("      \"table_changes\": %llu,\n",
              static_cast<unsigned long long>(flap.table_changes));
  std::printf("      \"dark_time_ms\": %.3f,\n", flap.reaction_time_ms);
  std::printf("      \"audit_violations\": %llu,\n",
              static_cast<unsigned long long>(flap.audit.findings.size()));
  std::printf("      \"tables_restored\": %s\n",
              flap.tables_restored ? "true" : "false");
  std::printf("    }%s\n", trailing_comma ? "," : "");
  return flap.tables_restored && flap.audit.findings.empty();
}

}  // namespace

bool aspen::bench::flapping() {
  const int k = 6;
  const int n = 3;
  const int cycles = 10;
  const Topology fat = Topology::build(fat_tree(n, k));
  const Topology aspen_tree =
      Topology::build(design_fixed_host_tree(n, k, /*extra_levels=*/1));

  std::printf("{\n");
  std::printf("  \"experiment\": \"flap_damping\",\n");
  std::printf("  \"fabrics\": {\"fat\": \"fat(%d,%d)+LSP\", \"aspen\": "
              "\"aspen(%d,%d,+1)+ANP\"},\n",
              n, k, n, k);
  std::printf("  \"runs\": [\n");
  bool ok = true;
  const std::vector<SimTime> periods{200.0, 400.0, 1000.0};
  for (std::size_t p = 0; p < periods.size(); ++p) {
    for (const bool damped : {false, true}) {
      ok = print_run("fat", ProtocolKind::kLsp, fat, periods[p], cycles,
                     damped, true) && ok;
      ok = print_run("aspen", ProtocolKind::kAnp, aspen_tree, periods[p],
                     cycles, damped, p + 1 < periods.size() || !damped) && ok;
    }
  }
  std::printf("  ],\n");
  std::printf("  \"metrics\":\n%s\n", obs::metrics().to_json(2).c_str());
  std::printf("}\n");
  return ok;
}
