// The experiments bench_paper runs (bench/bench_paper.cpp), one per
// source file in this directory.  Each prints its tables or its JSON
// document to stdout and returns its verdict: false when an invariant it
// prints (restored tables, digest identity, a clean audit) does not hold.
// An experiment that prints no invariant returns true.
#pragma once

namespace aspen::bench {

bool fig3_table();
bool fig7_convergence_cost();
bool fig8_tradeoff();
bool fig9_scale();
bool fig10_simulation();
bool fig10_large();
bool practical_tree();
bool disconnection();
bool ablation_anp();
bool traffic();
bool availability();
bool compound_failures();
bool timers();
bool forwarding_state();
bool vulnerability_window();
bool flapping();
bool chaos_loss();
bool detection();

}  // namespace aspen::bench
