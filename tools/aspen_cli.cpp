// aspen — command-line front end to the Aspen tree library.
//
//   aspen generate <n> <k> <ftv>                  tree properties
//   aspen enumerate <n> <k> [min_hosts [max_sw]]  design-space catalog
//   aspen validate <n> <k> <ftv> [striping [seed]]   §7 wiring checks
//   aspen export <dot|csv> <n> <k> <ftv>          topology to stdout
//   aspen design <n_fat> <k> <x> [placement]      fixed-host Aspen tree
//   aspen recommend <n> <budget> [ft]             §8.1 FTV placement
//   aspen simulate <n> <k> <ftv> <lsp|anp|anp+> [level]   failure sweep
//   aspen availability <n> <k> <ftv> [rate]       §1 nines accounting
//   aspen window <n> <k> <ftv> <lsp|anp|anp+>     §8.4 loss-vs-time curve
//   aspen chaos <n> <k> <ftv> <lsp|anp|anp+> [events [drop [seed [degrade]]]]
//                                                 randomized fault campaign
//   aspen detect <n> <k> <ftv> [loss [interval [N [M]]]]
//                                                 BFD-style detector drill
//   aspen label <n> <k> <ftv> [host]              §5.3 hierarchical labels
//   aspen audit <n> <k> <ftv> <links.csv>         validate external wiring
//   aspen trace <n> <k> <ftv> <lsp|anp> [single|chaos [events]]
//                                                 canonical traced scenario
//   aspen serve <n> <k> <ftv> <lsp|anp|anp+> [queries [drop [seed [deadline]]]]
//                                                 what-if query service under
//                                                 live chaos, audited
//   aspen flows <n> <k> <ftv> <lsp|anp|anp+> [flows [events [seed [policy]]]]
//                                                 flow-scale traffic through a
//                                                 chaos schedule, exact loss
//
// Every subcommand is a thin veneer over the public library API; exit code
// 0 on success, 1 on bad usage, 2 when a check fails.
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "src/analysis/availability.h"
#include "src/analysis/convergence.h"
#include "src/analysis/survivability.h"
#include "src/analysis/trace_scenarios.h"
#include "src/obs/obs.h"
#include "src/fault/chaos.h"
#include "src/fault/detector.h"
#include "src/fault/failure_domains.h"
#include "src/fault/seed.h"
#include "src/aspen/enumerate.h"
#include "src/aspen/fixed_hosts.h"
#include "src/aspen/generator.h"
#include "src/aspen/recommend.h"
#include "src/proto/experiment.h"
#include "src/serve/driver.h"
#include "src/labels/labels.h"
#include "src/proto/inflight.h"
#include "src/traffic/flow_plane.h"
#include "src/traffic/patterns.h"
#include "src/topo/export.h"
#include "src/topo/import.h"
#include "src/topo/validate.h"
#include "src/util/contracts.h"
#include "src/util/parallel.h"
#include "src/util/table.h"

namespace {

using namespace aspen;

/// Parses a whole argument as a T: every character must belong to the
/// number and the value must fit T, so "40x" is an error rather than 40,
/// and an unsigned T rejects a sign rather than wrapping "-3".  Throws
/// std::invalid_argument, which the caller reports as a usage error.
template <typename T>
T parse_number(const std::string& token) {
  T value{};
  const char* last = token.data() + token.size();
  const auto [end, ec] = std::from_chars(token.data(), last, value);
  if (ec != std::errc{} || end != last) {
    throw std::invalid_argument("not a valid number: '" + token + "'");
  }
  return value;
}

/// Global --seed= override, stripped in main(); subcommands that take a
/// seed (chaos, detect) prefer it over their positional.
std::optional<std::uint64_t> g_seed;

/// Global --metrics= / --trace= output paths ("-" = stdout), stripped in
/// main().  Setting either enables the corresponding obs subsystem for the
/// whole invocation; the collected data is written out after the subcommand
/// returns.
std::optional<std::string> g_metrics_path;
std::optional<std::string> g_trace_path;

/// Writes `data` to `path` ("-" = stdout).  Returns 0 on success.
int write_output(const std::string& path, const std::string& data,
                 bool binary) {
  if (path == "-") {
    std::fwrite(data.data(), 1, data.size(), stdout);
    return 0;
  }
  std::ofstream out(path, binary ? std::ios::binary : std::ios::out);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  out << data;
  return 0;
}

[[nodiscard]] bool wants_binary_trace(const std::string& path) {
  constexpr const char* kSuffix = ".bin";
  const std::size_t len = std::strlen(kSuffix);
  return path.size() >= len &&
         path.compare(path.size() - len, len, kSuffix) == 0;
}

/// Dumps the process-wide metrics/trace data to the --metrics=/--trace=
/// destinations (no-op for whichever flag is unset).
int flush_obs_outputs() {
  int rc = 0;
  if (g_metrics_path) {
    rc |= write_output(*g_metrics_path, obs::metrics().to_json(2) + "\n",
                       /*binary=*/false);
  }
  if (g_trace_path) {
    const bool binary = wants_binary_trace(*g_trace_path);
    rc |= write_output(*g_trace_path,
                       binary ? obs::tracer().to_binary()
                              : obs::tracer().to_jsonl(),
                       binary);
  }
  return rc;
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  aspen generate <n> <k> <ftv>\n"
      "  aspen enumerate <n> <k> [min_hosts [max_switches]]\n"
      "  aspen validate <n> <k> <ftv> [standard|rotated|random|parallel "
      "[seed]]\n"
      "  aspen export <dot|csv> <n> <k> <ftv>\n"
      "  aspen design <n_fat> <k> <x> [top|bottom|spread]\n"
      "  aspen recommend <n> <budget> [ft]\n"
      "  aspen simulate <n> <k> <ftv> <lsp|anp|anp+> [level]\n"
      "  aspen availability <n> <k> <ftv> [failures_per_link_per_year]\n"
      "  aspen window <n> <k> <ftv> <lsp|anp|anp+>\n"
      "  aspen chaos <n> <k> <ftv> <lsp|anp|anp+> [events [drop_rate "
      "[seed [degrade]]]]\n"
      "  aspen survive <n> <k> <ftv> [samples [independent|rack|feed|"
      "linecard[:p] [max_steps [mtbf_h [mttr_h]]]]]\n"
      "  aspen detect <n> <k> <ftv> [loss [interval_ms [N [M]]]]\n"
      "  aspen label <n> <k> <ftv> [host]\n"
      "  aspen audit <n> <k> <ftv> <links.csv>\n"
      "  aspen trace <n> <k> <ftv> <lsp|anp> [single|chaos [events]]\n"
      "  aspen serve <n> <k> <ftv> <lsp|anp|anp+> [queries [drop_rate "
      "[seed [deadline_ms]]]]\n"
      "  aspen flows <n> <k> <ftv> <lsp|anp|anp+> [flows [events "
      "[seed [hash|lowest|weighted]]]]\n"
      "ftv syntax: \"<a,b,c>\" or \"a,b,c\" (top level first)\n"
      "global flags (any position):\n"
      "  --audit=<off|basic|paranoid>   runtime invariant-audit level;\n"
      "                                 paranoid runs every layer auditor at\n"
      "                                 phase boundaries (also via the\n"
      "                                 ASPEN_AUDIT_LEVEL env variable)\n"
      "  --seed=<u64>                   campaign / detector seed; overrides\n"
      "                                 the positional seed and is echoed in\n"
      "                                 every report\n"
      "  --threads=<n>                  route-computation worker threads\n"
      "                                 (0 = auto; also via the\n"
      "                                 ASPEN_THREADS env variable); output\n"
      "                                 is identical at every thread count\n"
      "  --metrics=<path|->             enable the metrics registry and\n"
      "                                 write a JSON snapshot at exit\n"
      "                                 (- = stdout)\n"
      "  --trace=<path|->               enable event tracing and write the\n"
      "                                 trace at exit (JSON Lines, or the\n"
      "                                 compact binary format when the path\n"
      "                                 ends in .bin)\n");
  return 1;
}

void print_tree(const TreeParams& tree) {
  std::printf("%s\n", tree.to_string().c_str());
  std::printf("  hosts            : %lu\n",
              static_cast<unsigned long>(tree.num_hosts()));
  std::printf("  switches         : %lu (S=%lu per level, S/2 on top)\n",
              static_cast<unsigned long>(tree.total_switches()),
              static_cast<unsigned long>(tree.S));
  std::printf("  links            : %lu\n",
              static_cast<unsigned long>(tree.total_links()));
  std::printf("  DCC              : %lu\n",
              static_cast<unsigned long>(tree.dcc()));
  std::printf("  aggregation      : %.0f\n", tree.overall_aggregation());
  std::printf("  avg convergence  : %.2f hops\n",
              average_update_propagation(tree.ftv()));
  std::printf("  per-level (i: p m r c ft):\n");
  for (Level i = tree.n; i >= 1; --i) {
    const auto ui = static_cast<std::size_t>(i);
    std::printf("    L%d: p=%-4lu m=%-4lu", i,
                static_cast<unsigned long>(tree.p[ui]),
                static_cast<unsigned long>(tree.m[ui]));
    if (i >= 2) {
      std::printf(" r=%-4lu c=%-2lu ft=%d",
                  static_cast<unsigned long>(tree.r[ui]),
                  static_cast<unsigned long>(tree.c[ui]),
                  tree.fault_tolerance_at_level(i));
    }
    std::printf("\n");
  }
}

int cmd_generate(const std::vector<std::string>& args) {
  if (args.size() != 3) return usage();
  print_tree(generate_tree(parse_number<int>(args[0]),
                           parse_number<int>(args[1]),
                           FaultToleranceVector::parse(args[2])));
  return 0;
}

int cmd_enumerate(const std::vector<std::string>& args) {
  if (args.size() < 2 || args.size() > 4) return usage();
  EnumerationFilter filter;
  if (args.size() >= 3) {
    filter.min_hosts = parse_number<std::uint64_t>(args[2]);
  }
  if (args.size() >= 4) {
    filter.max_switches = parse_number<std::uint64_t>(args[3]);
  }
  TextTable table({"FTV", "DCC", "hosts", "switches", "links", "avg hops"});
  for (const TreeParams& t :
       enumerate_trees(parse_number<int>(args[0]), parse_number<int>(args[1]),
                       filter)) {
    table.add_row({t.ftv().to_string(), std::to_string(t.dcc()),
                   std::to_string(t.num_hosts()),
                   std::to_string(t.total_switches()),
                   std::to_string(t.total_links()),
                   format_double(average_update_propagation(t.ftv()), 2)});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

StripingConfig parse_striping(const std::vector<std::string>& args,
                              std::size_t index) {
  StripingConfig cfg;
  if (args.size() > index) {
    const std::string& name = args[index];
    if (name == "rotated") {
      cfg.kind = StripingKind::kRotated;
    } else if (name == "random") {
      cfg.kind = StripingKind::kRandom;
    } else if (name == "parallel") {
      cfg.kind = StripingKind::kParallelHeavy;
    } else if (name != "standard") {
      throw PreconditionError("unknown striping: " + name);
    }
  }
  if (args.size() > index + 1) {
    cfg.seed = parse_number<std::uint64_t>(args[index + 1]);
  }
  return cfg;
}

int cmd_validate(const std::vector<std::string>& args) {
  if (args.size() < 3 || args.size() > 5) return usage();
  const Topology topo = Topology::build(
      generate_tree(parse_number<int>(args[0]), parse_number<int>(args[1]),
                    FaultToleranceVector::parse(args[2])),
      parse_striping(args, 3));
  const ValidationReport report = validate_topology(topo);
  std::printf("%s\n", topo.describe().c_str());
  std::printf("  ports ok                : %s\n", report.ports_ok ? "yes" : "NO");
  std::printf("  uniform fault tolerance : %s\n",
              report.uniform_fault_tolerance ? "yes" : "NO");
  std::printf("  top-level coverage      : %s\n",
              report.top_level_coverage ? "yes" : "NO");
  std::printf("  §7 ANP striping         : %s\n",
              report.anp_striping_ok ? "yes" : "NO");
  std::printf("  parallel link pairs     : %lu\n",
              static_cast<unsigned long>(report.parallel_link_pairs));
  if (!report.bottleneck_pod_levels.empty()) {
    std::printf("  bottleneck pods (§8.4) at levels:");
    for (const Level level : report.bottleneck_pod_levels) {
      std::printf(" L%d", level);
    }
    std::printf("\n");
  }
  for (const AuditFinding& finding : report.findings) {
    std::printf("  problem [%s]: %s\n", to_cstring(finding.code),
                finding.message.c_str());
  }
  return report.all_ok() ? 0 : 2;
}

int cmd_export(const std::vector<std::string>& args) {
  if (args.size() != 4) return usage();
  const Topology topo = Topology::build(
      generate_tree(parse_number<int>(args[1]), parse_number<int>(args[2]),
                    FaultToleranceVector::parse(args[3])));
  if (args[0] == "dot") {
    std::printf("%s", to_dot(topo).c_str());
  } else if (args[0] == "csv") {
    std::printf("%s", to_csv(topo).c_str());
  } else {
    return usage();
  }
  return 0;
}

int cmd_design(const std::vector<std::string>& args) {
  if (args.size() < 3 || args.size() > 4) return usage();
  RedundancyPlacement placement = RedundancyPlacement::kTop;
  if (args.size() == 4) {
    if (args[3] == "bottom") {
      placement = RedundancyPlacement::kBottom;
    } else if (args[3] == "spread") {
      placement = RedundancyPlacement::kSpread;
    } else if (args[3] != "top") {
      return usage();
    }
  }
  const int n_fat = parse_number<int>(args[0]);
  const int k = parse_number<int>(args[1]);
  const TreeParams aspen =
      design_fixed_host_tree(n_fat, k, parse_number<int>(args[2]), placement);
  const TreeParams fat = fat_tree(n_fat, k);
  print_tree(aspen);
  std::printf("  vs the %d-level fat tree: +%lu switches, +%lu links, same "
              "%lu hosts\n",
              n_fat,
              static_cast<unsigned long>(aspen.total_switches() -
                                         fat.total_switches()),
              static_cast<unsigned long>(aspen.total_links() -
                                         fat.total_links()),
              static_cast<unsigned long>(fat.num_hosts()));
  return 0;
}

int cmd_recommend(const std::vector<std::string>& args) {
  if (args.size() < 2 || args.size() > 3) return usage();
  const int ft = args.size() == 3 ? parse_number<int>(args[2]) : 1;
  const auto ftv =
      recommend_ftv_placement(parse_number<int>(args[0]),
                              parse_number<int>(args[1]), ft);
  const PlacementQuality quality = evaluate_placement(ftv);
  std::printf("%s  covered=%s longest_zero_run=%d avg_hops=%.2f\n",
              ftv.to_string().c_str(), quality.covered ? "yes" : "no",
              quality.longest_zero_run, quality.average_hops);
  return 0;
}

int cmd_simulate(const std::vector<std::string>& args) {
  if (args.size() < 4 || args.size() > 5) return usage();
  const Topology topo = Topology::build(
      generate_tree(parse_number<int>(args[0]), parse_number<int>(args[1]),
                    FaultToleranceVector::parse(args[2])));
  SweepOptions options;
  ProtocolKind kind;
  if (args[3] == "lsp") {
    kind = ProtocolKind::kLsp;
  } else if (args[3] == "anp") {
    kind = ProtocolKind::kAnp;
  } else if (args[3] == "anp+") {
    kind = ProtocolKind::kAnp;
    options.anp.notify_children = true;
  } else {
    return usage();
  }
  if (args.size() == 5) options.levels = {parse_number<int>(args[4])};
  options.connectivity_flows = 2000;
  const SweepResult sweep = sweep_link_failures(kind, topo, options);
  std::printf("%s, protocol %s: %lu failures swept\n",
              topo.describe().c_str(), args[3].c_str(),
              static_cast<unsigned long>(sweep.failures));
  std::printf("  convergence ms : avg %.1f  min %.1f  max %.1f\n",
              sweep.convergence_ms.mean(), sweep.convergence_ms.min(),
              sweep.convergence_ms.max());
  std::printf("  reacted        : avg %.1f of %lu switches\n",
              sweep.reacted.mean(),
              static_cast<unsigned long>(topo.num_switches()));
  std::printf("  informed       : avg %.1f\n", sweep.informed.mean());
  std::printf("  messages       : avg %.1f\n", sweep.messages.mean());
  std::printf("  fully restored : %lu/%lu (2000 sampled flows each)\n",
              static_cast<unsigned long>(sweep.fully_restored),
              static_cast<unsigned long>(sweep.failures));
  return 0;
}

int cmd_availability(const std::vector<std::string>& args) {
  if (args.size() < 3 || args.size() > 4) return usage();
  const TreeParams tree =
      generate_tree(parse_number<int>(args[0]), parse_number<int>(args[1]),
                    FaultToleranceVector::parse(args[2]));
  const double rate = args.size() == 4 ? parse_number<double>(args[3]) : 0.25;
  const AvailabilityEstimate estimate = estimate_availability(tree, rate);
  std::printf("%s at %.2f failures/link/year:\n", tree.to_string().c_str(),
              rate);
  std::printf("  failures/year  : %.0f\n", estimate.failures_per_year);
  std::printf("  window/failure : %.1f ms\n", estimate.reaction_s * 1000.0);
  std::printf("  downtime/year  : %.1f s\n", estimate.downtime_s_per_year);
  std::printf("  availability   : %.7f (%.2f nines)\n",
              estimate.availability, estimate.nines);
  return 0;
}

int cmd_window(const std::vector<std::string>& args) {
  if (args.size() != 4) return usage();
  const Topology topo = Topology::build(
      generate_tree(parse_number<int>(args[0]), parse_number<int>(args[1]),
                    FaultToleranceVector::parse(args[2])));
  ProtocolKind kind;
  AnpOptions anp;
  if (args[3] == "lsp") {
    kind = ProtocolKind::kLsp;
  } else if (args[3] == "anp") {
    kind = ProtocolKind::kAnp;
  } else if (args[3] == "anp+") {
    kind = ProtocolKind::kAnp;
    anp.notify_children = true;
  } else {
    return usage();
  }
  std::vector<Flow> flows;
  const auto hosts = static_cast<std::uint32_t>(topo.num_hosts());
  for (std::uint32_t h = 0; h < hosts; ++h) {
    flows.push_back(Flow{HostId{h}, HostId{(h + hosts / 2) % hosts}});
  }
  const std::vector<SimTime> times{0,   5,   10,  20,   40,  80,
                                   160, 320, 640, 1280, 2560};
  const auto curve = run_window_experiment(
      kind, topo, topo.links_at_level(2)[0], flows, times, DelayModel{},
      anp);
  std::printf("%s, %s, L2 failure — loss vs injection time:\n",
              topo.params().to_string().c_str(), args[3].c_str());
  for (const WindowSample& sample : curve) {
    std::printf("  t=%6.0f ms  loss %5.1f%%\n", sample.inject_ms,
                100.0 * sample.loss_rate());
  }
  return 0;
}

/// One line naming every channel setting a run used.  A drop argument on
/// the command line, even 0, also sets jitter and duplicates, so the rate
/// alone does not say which channel ran.
void print_channel(const char* label, const ChannelOptions& channel) {
  std::printf("%s: drop %g%%, duplicate %g%%, jitter %g ms, reliable "
              "transport %s\n",
              label, 100.0 * channel.drop_rate, 100.0 * channel.duplicate_rate,
              channel.jitter_ms, channel.reliable ? "on" : "off");
}

int cmd_chaos(const std::vector<std::string>& args) {
  if (args.size() < 4 || args.size() > 8) return usage();
  const Topology topo = Topology::build(
      generate_tree(parse_number<int>(args[0]), parse_number<int>(args[1]),
                    FaultToleranceVector::parse(args[2])));
  ChaosOptions options;
  ProtocolKind kind;
  if (args[3] == "lsp") {
    kind = ProtocolKind::kLsp;
  } else if (args[3] == "anp") {
    kind = ProtocolKind::kAnp;
  } else if (args[3] == "anp+") {
    kind = ProtocolKind::kAnp;
    options.anp.notify_children = true;
  } else {
    return usage();
  }
  if (args.size() >= 5) options.num_events = parse_number<int>(args[4]);
  if (args.size() >= 6) {
    options.delays.channel.drop_rate = parse_number<double>(args[5]);
    options.delays.channel.duplicate_rate =
        options.delays.channel.drop_rate / 4.0;
    options.delays.channel.jitter_ms = 0.5;
    options.delays.channel.reliable = options.delays.channel.drop_rate > 0.0;
  }
  if (args.size() >= 7) options.seed = parse_number<std::uint64_t>(args[6]);
  if (g_seed) options.seed = *g_seed;
  options.delays.channel.seed =
      fault::derive_stream_seed(options.seed, fault::kStreamChannel);
  if (args.size() >= 8) {
    options.p_degrade = parse_number<double>(args[7]);
    // Gray links can eat notifications; retransmit so tables restore.
    if (options.p_degrade > 0.0) options.delays.channel.reliable = true;
  }

  // Under paranoid auditing the protocols self-audit mid-run; tally those
  // violations rather than aborting the campaign on the first one.
  options.delays.audit_level =
      contracts::effective_audit_level(options.delays.audit_level);
  const bool paranoid =
      options.delays.audit_level >= contracts::AuditLevel::kParanoid;
  contracts::reset_violations();
  ChaosOutcome outcome;
  {
    const contracts::ScopedPolicy tally(
        paranoid ? contracts::ViolationPolicy::kCountAndLog
                 : contracts::policy());
    outcome = run_chaos_campaign(kind, topo, options);
  }
  const std::uint64_t contract_violations = contracts::violation_count();
  std::printf("%s, protocol %s: %d-event chaos campaign, seed %lu, "
              "audit %s\n",
              topo.describe().c_str(), args[3].c_str(), options.num_events,
              static_cast<unsigned long>(options.seed),
              to_cstring(options.delays.audit_level));
  print_channel("channel", options.delays.channel);

  TextTable table({"metric", "value"});
  table.add_row({"link failures / recoveries",
                 std::to_string(outcome.link_failures) + " / " +
                     std::to_string(outcome.link_recoveries)});
  table.add_row({"switch crashes / recoveries",
                 std::to_string(outcome.switch_crashes) + " / " +
                     std::to_string(outcome.switch_recoveries)});
  table.add_row({"crash-mid-reaction runs",
                 std::to_string(outcome.compound_runs)});
  if (options.p_degrade > 0.0) {
    table.add_row({"gray / flapping injected",
                   std::to_string(outcome.gray_injected) + " / " +
                       std::to_string(outcome.flaps_injected)});
    table.add_row({"degradations cleared",
                   std::to_string(outcome.degradations_cleared)});
  }
  table.add_row({"protocol messages", std::to_string(outcome.messages)});
  table.add_row({"retransmits / acks",
                 std::to_string(outcome.retransmits) + " / " +
                     std::to_string(outcome.acks)});
  table.add_row({"channel dropped / duplicated",
                 std::to_string(outcome.channel_dropped) + " / " +
                     std::to_string(outcome.channel_duplicated)});
  table.add_row({"duplicates suppressed",
                 std::to_string(outcome.duplicates_dropped)});
  table.add_row({"gave up / stale switches",
                 std::to_string(outcome.gave_up) + " / " +
                     std::to_string(outcome.stale_switches)});
  table.add_row({"convergence ms (avg/max)",
                 format_double(outcome.convergence_ms.mean(), 1) + " / " +
                     format_double(outcome.convergence_ms.max(), 1)});
  table.add_row({"all runs quiesced", outcome.all_quiesced ? "yes" : "NO"});
  table.add_row({"consistency checks",
                 std::to_string(outcome.checks) + " (" +
                     std::to_string(outcome.checked_flows) + " flows)"});
  table.add_row({"ground-truth violations",
                 std::to_string(outcome.ground_truth_violations)});
  table.add_row({"protocol shortfall flows",
                 std::to_string(outcome.protocol_shortfall)});
  if (options.p_degrade > 0.0) {
    table.add_row({"degraded-flow drops",
                   std::to_string(outcome.degraded_drops)});
    table.add_row({"health-eaten copies",
                   std::to_string(outcome.health_dropped)});
    if (outcome.detection_ms.count() > 0) {
      table.add_row({"gray confirm ms (avg/max)",
                     format_double(outcome.detection_ms.mean(), 1) + " / " +
                         format_double(outcome.detection_ms.max(), 1)});
    }
    table.add_row({"undetected grays",
                   std::to_string(outcome.undetected_grays)});
  }
  table.add_row({"tables restored", outcome.tables_restored ? "yes" : "NO"});
  if (paranoid) {
    table.add_row({"invariant audit passes",
                   std::to_string(outcome.audit_checks)});
    table.add_row({"invariant audit violations",
                   std::to_string(outcome.audit_violations)});
    table.add_row({"contract violations",
                   std::to_string(contract_violations)});
  }
  std::printf("%s", table.to_string().c_str());
  const auto hop_set = [](const std::vector<Topology::Neighbor>& hops) {
    std::string text = "{";
    for (const Topology::Neighbor& hop : hops) {
      text += (text.size() > 1 ? ", " : "") + to_string(hop.link);
    }
    return text + "}";
  };
  for (const UnrestoredRow& row : outcome.unrestored_rows) {
    std::printf("  unrestored %s dest %lu: cost %d via %s -> cost %d via %s\n",
                to_string(row.sw).c_str(),
                static_cast<unsigned long>(row.dest), row.before_cost,
                hop_set(row.before_hops).c_str(), row.after_cost,
                hop_set(row.after_hops).c_str());
  }
  for (const std::string& message : outcome.audit_messages) {
    std::printf("  audit: %s\n", message.c_str());
  }
  if (paranoid) {
    for (const std::string& message : contracts::recent_violations()) {
      std::printf("  contract: %s\n", message.c_str());
    }
  }

  const bool ok = outcome.tables_restored &&
                  outcome.ground_truth_violations == 0 &&
                  outcome.all_quiesced && outcome.audit_violations == 0 &&
                  contract_violations == 0;
  return ok ? 0 : 2;
}

// Flow-scale traffic through the vulnerability window: run_flow_chaos
// admits a batch of uniform-random flows before every fault-plane action
// and walks all inflight flows against the protocol's live tables after
// it, so the report prices convergence in lost flows rather than
// milliseconds.  The accounting identity admitted == delivered + lost +
// inflight is exact; exit 0 iff it holds and the campaign's own
// invariants (tables restored, zero ground-truth violations) pass.
int cmd_flows(const std::vector<std::string>& args) {
  if (args.size() < 4 || args.size() > 8) return usage();
  const Topology topo = Topology::build(
      generate_tree(parse_number<int>(args[0]), parse_number<int>(args[1]),
                    FaultToleranceVector::parse(args[2])));
  FlowChaosOptions options;
  ProtocolKind kind;
  if (args[3] == "lsp") {
    kind = ProtocolKind::kLsp;
  } else if (args[3] == "anp") {
    kind = ProtocolKind::kAnp;
  } else if (args[3] == "anp+") {
    kind = ProtocolKind::kAnp;
    options.chaos.anp.notify_children = true;
  } else {
    return usage();
  }
  if (args.size() >= 5) {
    options.total_flows = parse_number<std::uint64_t>(args[4]);
  }
  if (args.size() >= 6) options.chaos.num_events = parse_number<int>(args[5]);
  if (args.size() >= 7) {
    options.chaos.seed = parse_number<std::uint64_t>(args[6]);
  }
  if (g_seed) options.chaos.seed = *g_seed;
  if (args.size() >= 8 &&
      !parse_next_hop_policy(args[7], options.plane.policy)) {
    return usage();
  }
  options.chaos.check_flows = 32;  // flows are the payload, not the checks
  options.plane.base_seed =
      fault::derive_stream_seed(options.chaos.seed, fault::kStreamFlowEcmp);

  const FlowChaosReport report = run_flow_chaos(kind, topo, options);

  std::printf("%s, protocol %s: %lu flows / policy %s through a %d-event "
              "chaos campaign, seed %lu\n",
              topo.describe().c_str(), args[3].c_str(),
              static_cast<unsigned long>(report.admitted),
              to_cstring(options.plane.policy), options.chaos.num_events,
              static_cast<unsigned long>(options.chaos.seed));

  TextTable table({"metric", "value"});
  table.add_row({"admitted", std::to_string(report.admitted)});
  table.add_row({"delivered", std::to_string(report.delivered)});
  table.add_row({"lost (blackholed/looped/no-route)",
                 std::to_string(report.lost) + " (" +
                     std::to_string(report.blackholed) + "/" +
                     std::to_string(report.looped) + "/" +
                     std::to_string(report.no_route) + ")"});
  table.add_row({"still inflight", std::to_string(report.inflight)});
  table.add_row({"lost rate", format_double(100.0 * report.lost_rate(), 3) +
                                  "%"});
  table.add_row({"reroutes", std::to_string(report.reroutes)});
  table.add_row({"epochs", std::to_string(report.epochs)});
  table.add_row({"fate fingerprint",
                 std::to_string(report.fate_fingerprint)});
  table.add_row({"link failures / recoveries",
                 std::to_string(report.chaos.link_failures) + " / " +
                     std::to_string(report.chaos.link_recoveries)});
  table.add_row({"switch crashes / recoveries",
                 std::to_string(report.chaos.switch_crashes) + " / " +
                     std::to_string(report.chaos.switch_recoveries)});
  table.add_row({"ground-truth violations",
                 std::to_string(report.chaos.ground_truth_violations)});
  table.add_row({"tables restored",
                 report.chaos.tables_restored ? "yes" : "NO"});
  std::printf("%s", table.to_string().c_str());

  const bool ok =
      report.admitted == report.delivered + report.lost + report.inflight &&
      report.chaos.tables_restored &&
      report.chaos.ground_truth_violations == 0;
  return ok ? 0 : 2;
}

// Monte Carlo survivability campaign: progressive correlated failures on a
// warm incremental routing state, reported as a P(connected | j failed
// domains) curve with Wilson intervals plus a steady-state availability
// figure.  Exit 0 as long as the campaign committed samples — quarantined
// samples are reported, not fatal (the engine degrades gracefully).
int cmd_survive(const std::vector<std::string>& args) {
  if (args.size() < 3 || args.size() > 8) return usage();
  const Topology topo = Topology::build(
      generate_tree(parse_number<int>(args[0]), parse_number<int>(args[1]),
                    FaultToleranceVector::parse(args[2])));
  SurvivabilityOptions options;
  options.threads = 0;  // --threads= / ASPEN_THREADS via the parallel pool
  if (args.size() >= 4) options.samples = parse_number<std::uint64_t>(args[3]);
  const std::string domain_spec = args.size() >= 5 ? args[4] : "independent";
  if (args.size() >= 6) {
    options.max_steps = parse_number<std::uint32_t>(args[5]);
  }
  const double mtbf_hours =
      args.size() >= 7 ? parse_number<double>(args[6]) : 2190.0;
  const double mttr_hours =
      args.size() >= 8 ? parse_number<double>(args[7]) : 4.0;
  if (g_seed) options.seed = *g_seed;

  const fault::FailureDomainModel domains =
      fault::FailureDomainModel::parse(topo, domain_spec);
  const SurvivabilityResult result =
      run_survivability(topo, domains, options);

  std::printf("%s: survivability campaign, %lu samples, domains %s (%lu), "
              "seed %lu\n",
              topo.describe().c_str(),
              static_cast<unsigned long>(result.samples), domain_spec.c_str(),
              static_cast<unsigned long>(result.domain_count),
              static_cast<unsigned long>(options.seed));

  TextTable table({"metric", "value"});
  table.add_row({"committed samples",
                 std::to_string(result.acc.committed_samples)});
  table.add_row({"quarantined samples",
                 std::to_string(result.acc.quarantined)});
  table.add_row({"audits run", std::to_string(result.acc.audits_run)});
  table.add_row({"rollback rebuilds",
                 std::to_string(result.acc.rollback_rebuilds)});
  table.add_row({"P(disconnect <= max_steps)",
                 format_double(result.p_disconnect(), 4)});
  table.add_row({"mean domains to disconnect",
                 format_double(result.mean_domains_to_disconnect(), 2)});
  table.add_row({"mean links to disconnect",
                 format_double(result.mean_links_to_disconnect(), 2)});
  table.add_row({"availability (MTBF " + format_double(mtbf_hours, 0) +
                     "h, MTTR " + format_double(mttr_hours, 0) + "h)",
                 format_double(availability_from_survivability(
                                   result, mtbf_hours, mttr_hours),
                               6)});
  std::printf("%s", table.to_string().c_str());

  TextTable curve({"failed domains", "mean links down", "P(connected)",
                   "wilson 95% CI", "reachable pairs"});
  for (const SurvivabilityCurvePoint& point : result.curve()) {
    curve.add_row({std::to_string(point.step),
                   format_double(point.mean_failed_links, 1),
                   format_double(point.p_connected, 4),
                   "[" + format_double(point.ci.lo, 4) + ", " +
                       format_double(point.ci.hi, 4) + "]",
                   format_double(point.mean_reachable_fraction, 4)});
  }
  std::printf("%s", curve.to_string().c_str());
  for (const std::uint64_t index : result.acc.quarantined_indices) {
    std::printf("  quarantined sample %lu\n",
                static_cast<unsigned long>(index));
  }
  return result.acc.committed_samples > 0 ? 0 : 2;
}

// Detection drill: how fast does the BFD-style detector confirm a hard
// cut vs gray links of increasing loss, and what does the confirm latency
// do to each protocol's loss-inducing time once it is charged as
// DelayModel::detection?
int cmd_detect(const std::vector<std::string>& args) {
  if (args.size() < 3 || args.size() > 7) return usage();
  const Topology topo = Topology::build(
      generate_tree(parse_number<int>(args[0]), parse_number<int>(args[1]),
                    FaultToleranceVector::parse(args[2])));
  const double gray_loss =
      args.size() >= 4 ? parse_number<double>(args[3]) : 0.3;
  fault::DetectorOptions options;
  if (args.size() >= 5) {
    options.probe_interval_ms = parse_number<double>(args[4]);
  }
  if (args.size() >= 6) options.loss_threshold = parse_number<int>(args[5]);
  if (args.size() >= 7) options.window = parse_number<int>(args[6]);
  if (g_seed) options.seed = *g_seed;
  const LinkId link = topo.links_at_level(2)[0];
  std::printf("%s: detector on %s — probe %.1f ms, %d-of-%d, "
              "recover after %d, seed %lu\n",
              topo.describe().c_str(), to_string(link).c_str(),
              options.probe_interval_ms, options.loss_threshold,
              options.window, options.recovery_threshold,
              static_cast<unsigned long>(options.seed));

  bool ok = true;

  // Hard cut: the worst-case bound is deterministic.
  {
    LinkHealthState fault;
    fault.health = LinkHealth::kDown;
    const fault::DetectionOutcome down =
        fault::measure_detection(topo, link, fault, options);
    const bool within =
        down.confirmed() && down.confirm_latency_ms <= options.confirm_bound_ms();
    std::printf("  hard down : confirmed in %.1f ms (bound %.1f ms) — %s\n",
                down.confirm_latency_ms, options.confirm_bound_ms(),
                within ? "ok" : "VIOLATED");
    ok = ok && within;
  }

  // Gray sweep: confirmation is probabilistic; latency grows as the loss
  // rate falls toward the N-of-M threshold.
  TextTable table({"gray loss", "suspect ms", "confirm ms", "probes",
                   "lost"});
  for (const double loss : {0.1, 0.2, gray_loss, 0.7, 0.9}) {
    LinkHealthState fault;
    fault.health = LinkHealth::kGray;
    fault.loss_rate = loss;
    const fault::DetectionOutcome det =
        fault::measure_detection(topo, link, fault, options);
    table.add_row({format_double(loss, 2),
                   det.suspect_latency_ms < 0.0
                       ? "never"
                       : format_double(det.suspect_latency_ms, 1),
                   det.confirmed() ? format_double(det.confirm_latency_ms, 1)
                                   : "never",
                   std::to_string(det.stats.probes_sent),
                   std::to_string(det.stats.probes_lost)});
    if (loss == gray_loss) ok = ok && det.confirmed();
  }
  std::printf("%s", table.to_string().c_str());

  // Pipeline: detection latency + protocol reaction = loss-inducing time.
  for (const char* name : {"lsp", "anp"}) {
    const ProtocolKind kind =
        std::strcmp(name, "lsp") == 0 ? ProtocolKind::kLsp : ProtocolKind::kAnp;
    LinkHealthState fault;
    fault.health = LinkHealth::kGray;
    fault.loss_rate = gray_loss;
    const fault::DetectedFailureResult run =
        fault::run_detected_failure(kind, topo, link, fault, options);
    std::printf("  %-3s pipeline: detect %.1f ms + react %.1f ms = %.1f ms "
                "loss-inducing\n",
                name, run.detection.confirm_latency_ms,
                run.reaction.convergence_time_ms -
                    run.reaction.detection_ms,
                run.reaction.convergence_time_ms);
    ok = ok && run.reaction.detection_ms > 0.0;
  }
  return ok ? 0 : 2;
}

int cmd_label(const std::vector<std::string>& args) {
  if (args.size() < 3 || args.size() > 4) return usage();
  const Topology topo = Topology::build(
      generate_tree(parse_number<int>(args[0]), parse_number<int>(args[1]),
                    FaultToleranceVector::parse(args[2])));
  const ForwardingStateStats stats = forwarding_state_stats(topo);
  std::printf("%s\n", topo.describe().c_str());
  std::printf("  compact prefix entries : %lu total, %.1f per switch\n",
              static_cast<unsigned long>(stats.compact_entries),
              stats.mean_compact_per_switch);
  std::printf("  flat host-keyed        : %lu total\n",
              static_cast<unsigned long>(stats.flat_host_entries));
  if (args.size() == 4) {
    const HostId host{parse_number<std::uint32_t>(args[3])};
    std::printf("  label(%s)             : %s\n", to_string(host).c_str(),
                label_of(topo, host).to_string().c_str());
  } else {
    for (std::uint32_t h = 0;
         h < std::min<std::uint64_t>(8, topo.num_hosts()); ++h) {
      std::printf("  label(%s) = %s\n", to_string(HostId{h}).c_str(),
                  label_of(topo, HostId{h}).to_string().c_str());
    }
  }
  return 0;
}

int cmd_audit(const std::vector<std::string>& args) {
  if (args.size() != 4) return usage();
  std::ifstream file(args[3]);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", args[3].c_str());
    return 1;
  }
  std::ostringstream csv;
  csv << file.rdbuf();
  const TreeParams params =
      generate_tree(parse_number<int>(args[0]), parse_number<int>(args[1]),
                    FaultToleranceVector::parse(args[2]));
  const Topology topo = import_topology_csv(params, csv.str());
  const ValidationReport report = validate_topology(topo);
  std::printf("audited %s against %s\n", args[3].c_str(),
              params.to_string().c_str());
  std::printf("  ports ok / uniform ft / coverage / §7 striping: "
              "%s / %s / %s / %s\n",
              report.ports_ok ? "yes" : "NO",
              report.uniform_fault_tolerance ? "yes" : "NO",
              report.top_level_coverage ? "yes" : "NO",
              report.anp_striping_ok ? "yes" : "NO");
  for (const std::string& problem : report.problems) {
    std::printf("  problem: %s\n", problem.c_str());
  }
  return report.all_ok() ? 0 : 2;
}

// Replays one canonical traced scenario (src/analysis/trace_scenarios.h) —
// the same runs the golden-trace tests snapshot — and dumps the trace.
// The trace goes to --trace=<path> when given, otherwise to stdout as JSON
// Lines; a metrics snapshot goes to --metrics=<path> when given.
int cmd_trace(const std::vector<std::string>& args) {
  if (args.size() < 4 || args.size() > 6) return usage();
  const Topology topo = Topology::build(
      generate_tree(parse_number<int>(args[0]), parse_number<int>(args[1]),
                    FaultToleranceVector::parse(args[2])));
  ProtocolKind kind;
  if (args[3] == "lsp") {
    kind = ProtocolKind::kLsp;
  } else if (args[3] == "anp") {
    kind = ProtocolKind::kAnp;
  } else {
    return usage();
  }
  TraceScenarioOptions options;
  if (args.size() >= 5) options.scenario = parse_trace_scenario(args[4]);
  if (args.size() >= 6) options.chaos_events = parse_number<int>(args[5]);
  if (g_seed) options.seed = *g_seed;

  const TraceScenarioResult result = run_traced_scenario(kind, topo, options);

  int rc = 0;
  if (g_metrics_path) {
    rc |= write_output(*g_metrics_path, result.metrics_json + "\n",
                       /*binary=*/false);
    g_metrics_path.reset();
  }
  if (g_trace_path) {
    const bool binary = wants_binary_trace(*g_trace_path);
    rc |= write_output(*g_trace_path, binary ? result.binary : result.jsonl,
                       binary);
    g_trace_path.reset();
  } else {
    std::fwrite(result.jsonl.data(), 1, result.jsonl.size(), stdout);
  }
  std::fprintf(stderr,
               "%s, %s, %s, seed %lu: %lu trace records (%lu evicted)\n",
               topo.describe().c_str(), args[3].c_str(),
               to_cstring(options.scenario),
               static_cast<unsigned long>(options.seed),
               static_cast<unsigned long>(result.records),
               static_cast<unsigned long>(result.dropped));
  return rc;
}

/// "p50/p99" of a raw latency sample, linearly interpolated between ranks
/// (0 for an empty sample).
std::string p50_p99(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const auto at = [&values](double p) {
    if (values.empty()) return 0.0;
    const double rank = p * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
  };
  return format_double(at(0.50), 2) + "/" + format_double(at(0.99), 2);
}

// Serve-under-chaos campaign: a fleet of retrying clients fires route /
// what-if / loss queries over lossy channels while a chaos campaign
// mutates the fabric; every answer is labeled with its snapshot digest and
// staleness, and the post-hoc auditor re-checks each one against ground
// truth.  Exit 0 iff the report passed (zero audit mismatches, chaos
// invariants held, every admitted query completed).
int cmd_serve(const std::vector<std::string>& args) {
  if (args.size() < 4 || args.size() > 8) return usage();
  const Topology topo = Topology::build(
      generate_tree(parse_number<int>(args[0]), parse_number<int>(args[1]),
                    FaultToleranceVector::parse(args[2])));
  serve::ServeChaosOptions options;
  ProtocolKind kind;
  if (args[3] == "lsp") {
    kind = ProtocolKind::kLsp;
  } else if (args[3] == "anp") {
    kind = ProtocolKind::kAnp;
  } else if (args[3] == "anp+") {
    kind = ProtocolKind::kAnp;
    options.chaos.anp.notify_children = true;
  } else {
    return usage();
  }
  if (args.size() >= 5) options.num_queries = parse_number<int>(args[4]);
  if (args.size() >= 6) {
    options.client.channel.drop_rate = parse_number<double>(args[5]);
    options.client.channel.duplicate_rate =
        options.client.channel.drop_rate / 4.0;
    options.client.channel.jitter_ms = 0.3;
  }
  if (args.size() >= 7) {
    options.chaos.seed = parse_number<std::uint64_t>(args[6]);
  }
  if (g_seed) options.chaos.seed = *g_seed;
  if (args.size() >= 8) options.deadline_ms = parse_number<double>(args[7]);
  options.chaos.num_events = std::max(4, options.num_queries / 25);
  options.chaos.check_flows = 64;
  options.action_every_ms = static_cast<double>(options.num_queries) *
                            options.query_interarrival_ms /
                            static_cast<double>(options.chaos.num_events + 1);
  options.checkpoint_every = std::max(1, options.num_queries / 5);

  const serve::ServeChaosReport report =
      serve::run_serve_under_chaos(kind, topo, options);

  std::printf("%s, protocol %s: %d queries / %d clients under a %d-event "
              "chaos campaign, seed %lu\n",
              topo.describe().c_str(), args[3].c_str(), options.num_queries,
              options.num_clients, options.chaos.num_events,
              static_cast<unsigned long>(options.chaos.seed));
  print_channel("client channel", options.client.channel);
  print_channel("protocol channel", options.chaos.delays.channel);

  TextTable table({"metric", "value"});
  table.add_row({"answered / gave up",
                 std::to_string(report.answered) + " / " +
                     std::to_string(report.gave_up)});
  table.add_row({"shed / deadline-rejected",
                 std::to_string(report.server.shed) + " / " +
                     std::to_string(report.server.deadline_rejected)});
  table.add_row({"retransmits / duplicate replays / coalesced",
                 std::to_string(report.clients.retransmits) + " / " +
                     std::to_string(report.server.duplicate_replays) +
                     " / " + std::to_string(report.server.coalesced)});
  table.add_row({"cache hits / misses / evictions",
                 std::to_string(report.cache_hits) + " / " +
                     std::to_string(report.cache_misses) + " / " +
                     std::to_string(report.cache_evictions)});
  table.add_row({"snapshot seals / checkpoints",
                 std::to_string(report.seals) + " / " +
                     std::to_string(report.checkpoints_cut)});
  table.add_row({"answer ms p50/p99 (route, what-if, loss)",
                 p50_p99(report.route_latency_ms) + ", " +
                     p50_p99(report.what_if_latency_ms) + ", " +
                     p50_p99(report.loss_latency_ms)});
  if (report.staleness_ms.count() > 0) {
    table.add_row({"staleness ms (avg/max)",
                   format_double(report.staleness_ms.mean(), 2) + " / " +
                       format_double(report.staleness_ms.max(), 2)});
  }
  table.add_row({"labels audited", std::to_string(report.audited)});
  table.add_row({"audit mismatches",
                 std::to_string(report.audit_mismatches)});
  table.add_row({"ground-truth violations",
                 std::to_string(report.chaos.ground_truth_violations)});
  table.add_row({"tables restored",
                 report.chaos.tables_restored ? "yes" : "NO"});
  table.add_row({"report fingerprint",
                 std::to_string(report.fingerprint())});
  std::printf("%s", table.to_string().c_str());
  for (const std::string& message : report.audit_messages) {
    std::printf("  audit: %s\n", message.c_str());
  }
  return report.passed() ? 0 : 2;
}

int run_command(const std::string& command,
                const std::vector<std::string>& args) {
  if (command == "generate") return cmd_generate(args);
  if (command == "enumerate") return cmd_enumerate(args);
  if (command == "validate") return cmd_validate(args);
  if (command == "export") return cmd_export(args);
  if (command == "design") return cmd_design(args);
  if (command == "recommend") return cmd_recommend(args);
  if (command == "simulate") return cmd_simulate(args);
  if (command == "availability") return cmd_availability(args);
  if (command == "window") return cmd_window(args);
  if (command == "chaos") return cmd_chaos(args);
  if (command == "survive") return cmd_survive(args);
  if (command == "detect") return cmd_detect(args);
  if (command == "label") return cmd_label(args);
  if (command == "audit") return cmd_audit(args);
  if (command == "trace") return cmd_trace(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "flows") return cmd_flows(args);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  // Strip global flags first so they work in any position.
  std::vector<std::string> words;
  for (int i = 1; i < argc; ++i) {
    const std::string word = argv[i];
    constexpr const char* kAuditFlag = "--audit=";
    constexpr const char* kSeedFlag = "--seed=";
    if (word.rfind(kAuditFlag, 0) == 0) {
      try {
        aspen::contracts::set_audit_level(aspen::contracts::parse_audit_level(
            word.substr(std::strlen(kAuditFlag))));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return usage();
      }
      continue;
    }
    if (word.rfind(kSeedFlag, 0) == 0) {
      try {
        g_seed =
            parse_number<std::uint64_t>(word.substr(std::strlen(kSeedFlag)));
      } catch (const std::exception&) {
        std::fprintf(stderr, "error: bad --seed value: %s\n", word.c_str());
        return usage();
      }
      continue;
    }
    constexpr const char* kThreadsFlag = "--threads=";
    if (word.rfind(kThreadsFlag, 0) == 0) {
      try {
        aspen::parallel::set_num_threads(
            parse_number<int>(word.substr(std::strlen(kThreadsFlag))));
      } catch (const std::exception&) {
        std::fprintf(stderr, "error: bad --threads value: %s\n", word.c_str());
        return usage();
      }
      continue;
    }
    constexpr const char* kMetricsFlag = "--metrics=";
    if (word.rfind(kMetricsFlag, 0) == 0) {
      std::string path = word.substr(std::strlen(kMetricsFlag));
      g_metrics_path = path.empty() ? "-" : std::move(path);
      aspen::obs::ObsConfig config = aspen::obs::config();
      config.metrics = true;
      aspen::obs::configure(config);
      continue;
    }
    constexpr const char* kTraceFlag = "--trace=";
    if (word.rfind(kTraceFlag, 0) == 0) {
      std::string path = word.substr(std::strlen(kTraceFlag));
      g_trace_path = path.empty() ? "-" : std::move(path);
      aspen::obs::ObsConfig config = aspen::obs::config();
      config.trace = true;
      aspen::obs::configure(config);
      continue;
    }
    words.push_back(word);
  }
  if (words.empty()) return usage();
  const std::string command = words[0];
  const std::vector<std::string> args(words.begin() + 1, words.end());

  int rc;
  try {
    rc = run_command(command, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const int obs_rc = flush_obs_outputs();
  return rc != 0 ? rc : obs_rc;
}
