// Experiment X4 (extension) — protocol-timer sensitivity.
//
// §1: "the time for global re-convergence of the broadcast-based routing
// protocols (e.g. OSPF and IS-IS) used in today's data centers can be tens
// of seconds … in practice, settings such as protocol timers can further
// compound these delays."
//
// The paper's §9.2 constants deliberately idealize LSP (no pacing).  This
// bench turns the pacing timers back on — LSA-generation throttle and SPF
// hold-down at classic router defaults — and shows LSP convergence reaching
// the tens of seconds §1 describes, while ANP, which never floods or runs
// SPF, is untouched by them.
#include <cstdio>

#include "bench/paper/experiments.h"
#include "src/aspen/fixed_hosts.h"
#include "src/aspen/generator.h"
#include "src/proto/experiment.h"
#include "src/util/table.h"

bool aspen::bench::timers() {
  struct Preset {
    const char* name;
    DelayModel delays;
  };
  DelayModel conservative = DelayModel::classic_ospf_timers();
  conservative.spf_delay = 10'000.0;
  conservative.lsa_generation_delay = 1'000.0;
  const Preset presets[] = {
      {"paper ideal (no pacing)", DelayModel{}},
      {"classic defaults (0.5s gen, 5s SPF)",
       DelayModel::classic_ospf_timers()},
      {"conservative (1s gen, 10s SPF)", conservative},
  };

  const int k = 6;
  const int n = 3;
  const Topology fat = Topology::build(fat_tree(n, k));
  const Topology aspen =
      Topology::build(design_fixed_host_tree(n, k, /*extra_levels=*/1));

  std::printf(
      "== Timer sensitivity: k=%d fat tree (LSP) vs fixed-host Aspen (ANP) "
      "==\n\n",
      k);
  TextTable table({"timer preset", "LSP avg (ms)", "LSP max (ms)",
                   "ANP avg (ms)", "ANP max (ms)", "LSP:ANP"});
  for (const Preset& preset : presets) {
    SweepOptions options;
    options.delays = preset.delays;
    const SweepResult lsp =
        sweep_link_failures(ProtocolKind::kLsp, fat, options);
    const SweepResult anp =
        sweep_link_failures(ProtocolKind::kAnp, aspen, options);
    table.add_row({preset.name, format_double(lsp.convergence_ms.mean(), 0),
                   format_double(lsp.convergence_ms.max(), 0),
                   format_double(anp.convergence_ms.mean(), 0),
                   format_double(anp.convergence_ms.max(), 0),
                   format_double(lsp.convergence_ms.mean() /
                                     anp.convergence_ms.mean(),
                                 0) +
                       "x"});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "with realistic pacing, a single link failure leaves parts of the fat\n"
      "tree dark for over ten seconds — the §1 'tens of seconds' regime —\n"
      "while ANP's notification path involves neither flooding throttles\n"
      "nor SPF hold-downs.\n");
  return true;
}
