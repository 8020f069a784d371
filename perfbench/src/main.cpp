// aspen_perfbench — one benchmark workload in one process.
//
//   aspen_perfbench --workload <flows|control|survive|serve> --seed <n>
//                   [--seconds <s> | --rounds <n>] [--trace 0|1]
//                   [--size full|toy] [--spans <file.jsonl>]
//
// Runs rounds of the workload (set-up, then a timed phase) until the timed
// phases add up to about --seconds, or exactly --rounds rounds.  Round r uses
// seed mix64(seed, r), round 0 the seed itself, so a traced replay with
// --rounds reproduces an untraced run's inputs and fingerprint exactly.
// The last stdout line is one JSON object: the run's fingerprint, its
// end-to-end metrics and, with --trace 1, every per-layer metric.
//
// Exit status: 0 when every exact identity held (ops that failed as known
// model failures are counted, not fatal), 3 when one broke, 1 on usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>
#include <vector>

#include "measure.h"
#include "probes.h"
#include "src/obs/obs.h"
#include "src/util/parallel.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 10.0;
  std::uint64_t rounds = 0;  ///< 0: run for `seconds`
  bool trace = false;
  Size size = Size::kFull;
  std::string spans_path;
};

int usage() {
  std::fprintf(stderr,
               "usage: aspen_perfbench --workload <flows|control|survive|"
               "serve> --seed <n> [--seconds <s> | --rounds <n>] "
               "[--trace 0|1] [--size full|toy] [--spans <file>]\n");
  return 1;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      args.have_seed = *end == '\0' && !value.empty();
      if (!args.have_seed) return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--rounds") {
      args.rounds = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || args.rounds == 0) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "toy") return false;
      args.size = value == "toy" ? Size::kToy : Size::kFull;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args.have_seed && !args.workload.empty();
}

/// Every per-layer metric a traced run reports, besides obs.overhead
/// (which needs the untraced run too and is added by perfbench/run.py).
/// Metrics a workload does not exercise read 0.
const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      "traffic.step_ms_p50", "traffic.step_ms_max", "traffic.walks_per_s",
      "traffic.admit_ms", "util.par_eff", "routing.full_ms",
      "routing.full_minflt", "routing.full_speedup_p4", "routing.state_mb",
      "routing.rows_full_per_op", "routing.rows_patched_per_op",
      "routing.delta_us_p50", "routing.delta_us_p99",
      "routing.rollback_us_p50", "routing.walk_us_p50", "fault.ctor_ms",
      "fault.advance_ms_p50", "fault.advance_ms_max", "fault.finish_ms",
      "proto.msgs_per_op", "proto.lsa_installs_per_op", "sim.events_per_op",
      "analysis.steps_per_op", "analysis.audit_ms", "analysis.quarantined",
      "analysis.rollback_rebuilds", "serve.exec_us_route_p50",
      "serve.exec_us_route_p99", "serve.exec_us_whatif_p50",
      "serve.exec_us_whatif_p99", "serve.exec_us_loss_p50",
      "serve.exec_us_loss_p99", "serve.seal_us_p50", "serve.codec_us_p50",
      "serve.checkpoint_ms", "serve.restore_ms", "serve.cache_hit_ratio",
      "serve.retransmits_per_op", "serve.replays_per_op", "proc.setup_cpu_s",
      "proc.setup_minflt", "proc.run_cpu_s", "proc.run_sys_frac",
      "proc.run_minflt", "proc.run_nivcsw", "topo.build_ms", "fail_rate",
      "self.traffic.step", "self.traffic.admit", "self.fault.advance",
      "self.fault.finish", "self.analysis.survivability",
      "self.serve.campaign", "self.unattributed"};
  return names;
}

struct RunTotals {
  std::uint64_t rounds = 0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t fingerprint = 0;
  bool identity_ok = true;
  std::vector<std::string> notes;
  std::vector<double> setup_s;
  double timed_s = 0.0;
  Usage setup_usage;
  Usage run_usage;
  TimedTotals timed;
};

std::uint64_t counter_value(const std::string& name) {
  return aspen::obs::metrics().counter(name);
}

RunTotals run_rounds(const Args& args, Workload& workload, Spans& spans) {
  RunTotals t;
  const ScopedSpan run_span(spans, "run");
  bool stop = false;
  for (std::uint64_t r = 0; !stop; ++r) {
    // Time-bounded runs stop at the round boundary nearest --seconds.
    const bool done =
        args.rounds > 0
            ? r >= args.rounds
            : r > 0 && t.timed_s + 0.5 * t.timed_s / static_cast<double>(r) >=
                           args.seconds;
    if (done) break;
    const std::uint64_t seed = r == 0 ? args.seed : mix64(args.seed, r);
    RoundOutcome outcome;
    try {
      const ScopedSpan round_span(spans, "round");
      const Usage u0 = usage_now();
      const double t0 = now_s();
      {
        const ScopedSpan span(spans, "setup");
        workload.setup(seed, spans);
      }
      const double t1 = now_s();
      const Usage u1 = usage_now();
      std::vector<std::uint64_t> before;
      for (const std::string& name : timed_counter_names()) {
        before.push_back(counter_value(name));
      }
      {
        const ScopedSpan span(spans, "timed");
        outcome = workload.run(spans);
      }
      const double t2 = now_s();
      t.setup_usage += u1 - u0;
      t.run_usage += usage_now() - u1;
      t.setup_s.push_back(t1 - t0);
      t.timed_s += t2 - t1;
      for (std::size_t i = 0; i < before.size(); ++i) {
        const std::string& name = timed_counter_names()[i];
        t.timed.counters[name] += counter_value(name) - before[i];
      }
    } catch (const std::exception& e) {
      // A library error is no known model failure: stop and report it.
      outcome.identity_ok = false;
      outcome.note = std::string(" exception: ") + e.what();
      stop = true;
    }
    workload.teardown();

    ++t.rounds;
    t.ops += outcome.ops;
    t.failed += outcome.failed;
    t.fingerprint = mix64(t.fingerprint, outcome.fingerprint);
    t.identity_ok = t.identity_ok && outcome.identity_ok;
    if (!outcome.note.empty()) {
      char head[96];
      std::snprintf(head, sizeof head, "round %llu seed %llu: %llu of %llu "
                    "ops failed;",
                    static_cast<unsigned long long>(r),
                    static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(outcome.failed),
                    static_cast<unsigned long long>(outcome.ops));
      t.notes.push_back(head + outcome.note);
      std::fprintf(stderr, "perfbench %s: %s\n", args.workload.c_str(),
                   t.notes.back().c_str());
    }
  }
  t.timed.ops = t.ops;
  return t;
}

/// Span-derived and process per-layer metrics.
void span_and_proc_metrics(const RunTotals& t, const Spans& spans, int pool,
                           Metrics& out) {
  const auto median_ms = [&](const char* name) {
    return median(spans.durations(name)) * 1e3;
  };
  const auto max_ms = [&](const char* name) {
    return quantile(spans.durations(name), 1.0) * 1e3;
  };
  out["traffic.step_ms_p50"] = median_ms("traffic.step");
  out["traffic.step_ms_max"] = max_ms("traffic.step");
  out["traffic.admit_ms"] = median_ms("traffic.admit");
  out["fault.ctor_ms"] = median_ms("fault.ctor");
  out["fault.advance_ms_p50"] = median_ms("fault.advance");
  out["fault.advance_ms_max"] = max_ms("fault.advance");
  out["fault.finish_ms"] = median_ms("fault.finish");
  out["topo.build_ms"] = median_ms("topo.build");

  double timed_total = 0.0;
  for (const double d : spans.durations("timed")) timed_total += d;
  for (const auto& [name, self_s] : spans.self_times("timed")) {
    out["self." + name] = timed_total > 0.0 ? self_s / timed_total : 0.0;
  }

  const double rounds = static_cast<double>(t.rounds);
  out["util.par_eff"] = t.run_usage.cpu_s() / (t.timed_s * pool);
  out["proc.setup_cpu_s"] = t.setup_usage.cpu_s() / rounds;
  out["proc.setup_minflt"] = static_cast<double>(t.setup_usage.minflt) / rounds;
  out["proc.run_cpu_s"] = t.run_usage.cpu_s() / rounds;
  out["proc.run_sys_frac"] = t.run_usage.cpu_s() > 0.0
                                 ? t.run_usage.sys_s / t.run_usage.cpu_s()
                                 : 0.0;
  out["proc.run_minflt"] = static_cast<double>(t.run_usage.minflt) / rounds;
  out["proc.run_nivcsw"] = static_cast<double>(t.run_usage.nivcsw) / rounds;
  out["fail_rate"] = t.ops > 0 ? static_cast<double>(t.failed) /
                                     static_cast<double>(t.ops)
                               : 0.0;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  std::unique_ptr<Workload> workload = make_workload(args.workload, args.size);
  if (workload == nullptr) return usage();

  aspen::parallel::set_num_threads(workload->pool());
  if (args.trace) {
    aspen::obs::ObsConfig config;
    config.metrics = true;
    aspen::obs::configure(config);
  }
  Spans spans(args.workload + "-" + std::to_string(args.seed), args.trace);

  const RunTotals t = run_rounds(args, *workload, spans);
  const double peak_mb = peak_rss_mb();

  bool ok = t.identity_ok;
  std::vector<std::string> notes = t.notes;
  JsonObject out;
  out.integer("rounds", t.rounds)
      .integer("ops", t.ops)
      .integer("failed", t.failed)
      .str("fingerprint", hex(t.fingerprint))
      .num("timed_s", t.timed_s)
      .num("setup_s", median(t.setup_s))
      .num("ops_per_s", static_cast<double>(t.ops) / t.timed_s)
      .num("peak_rss_mb", peak_mb);

  if (args.trace && ok) {
    Metrics layer;
    for (const std::string& name : per_layer_names()) layer[name] = 0.0;
    span_and_proc_metrics(t, spans, workload->pool(), layer);
    workload->layer_metrics(t.timed, spans, layer);
    try {
      const ProbeVerdict probes =
          run_probes(workload->topology(), workload->pool(), args.seed,
                     workload->checkpoints(), layer);
      if (!probes.ok) {
        ok = false;
        notes.push_back("probe:" + probes.note);
      }
    } catch (const std::exception& e) {
      ok = false;
      notes.push_back(std::string("probe exception: ") + e.what());
    }
    const std::set<std::string> known(per_layer_names().begin(),
                                      per_layer_names().end());
    JsonObject metrics;
    for (const auto& [name, value] : layer) {
      if (known.count(name) == 0) {
        ok = false;
        notes.push_back("unlisted per-layer metric " + name);
      }
      metrics.num(name, value);
    }
    out.raw("per_layer", metrics.dump());
    if (!args.spans_path.empty() && !spans.write_jsonl(args.spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_path.c_str());
    }
  }

  std::string list = "[";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    list += (i > 0 ? ", " : "") + json_quote(notes[i]);
  }
  out.boolean("identity_ok", ok).raw("notes", list + "]");
  std::printf("%s\n", out.dump().c_str());
  return ok ? 0 : 3;
}
