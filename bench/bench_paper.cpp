// bench_paper — every deterministic result of the evaluation, one binary.
//
//   bench_paper [name...]
//
// Runs the named experiments in the order given, or all of them in the
// order below.  Each prints its tables or JSON document to stdout
// (bench/paper/<name>.cpp; DESIGN.md maps names to paper artifacts) with
// metrics on and the registry cleared first, so a full run prints the
// bytes of the experiments run one at a time; tests/golden/paper.txt pins
// them.  Wall-clock numbers live in perfbench, never here.
//
// Exit status: 0 when every experiment's invariants hold, 2 when one does
// not (its name goes to stderr), 1 for an unknown experiment name.
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/paper/experiments.h"
#include "src/obs/obs.h"

namespace {

struct Experiment {
  const char* name;
  bool (*run)();
};

constexpr Experiment kExperiments[] = {
    {"fig3_table", aspen::bench::fig3_table},
    {"fig7_convergence_cost", aspen::bench::fig7_convergence_cost},
    {"fig8_tradeoff", aspen::bench::fig8_tradeoff},
    {"fig9_scale", aspen::bench::fig9_scale},
    {"fig10_simulation", aspen::bench::fig10_simulation},
    {"fig10_large", aspen::bench::fig10_large},
    {"practical_tree", aspen::bench::practical_tree},
    {"disconnection", aspen::bench::disconnection},
    {"ablation_anp", aspen::bench::ablation_anp},
    {"traffic", aspen::bench::traffic},
    {"availability", aspen::bench::availability},
    {"compound_failures", aspen::bench::compound_failures},
    {"timers", aspen::bench::timers},
    {"forwarding_state", aspen::bench::forwarding_state},
    {"vulnerability_window", aspen::bench::vulnerability_window},
    {"flapping", aspen::bench::flapping},
    {"chaos_loss", aspen::bench::chaos_loss},
    {"detection", aspen::bench::detection},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Experiment*> selected;
  for (int i = 1; i < argc; ++i) {
    const Experiment* found = nullptr;
    for (const Experiment& e : kExperiments) {
      if (std::strcmp(e.name, argv[i]) == 0) found = &e;
    }
    if (found == nullptr) {
      std::fprintf(stderr, "bench_paper: unknown experiment '%s'; known:",
                   argv[i]);
      for (const Experiment& e : kExperiments) {
        std::fprintf(stderr, " %s", e.name);
      }
      std::fprintf(stderr, "\n");
      return 1;
    }
    selected.push_back(found);
  }
  if (selected.empty()) {
    for (const Experiment& e : kExperiments) selected.push_back(&e);
  }

  aspen::obs::ObsConfig obs_config;
  obs_config.metrics = true;
  aspen::obs::configure(obs_config);

  bool ok = true;
  for (const Experiment* e : selected) {
    aspen::obs::reset_collected();
    if (!e->run()) {
      std::fprintf(stderr, "bench_paper: %s: an invariant failed\n", e->name);
      ok = false;
    }
  }
  return ok ? 0 : 2;
}
