// The four benchmark workloads.  Each drives one fixed tree through the
// same public entry points the `aspen` CLI uses, one round at a time: an
// untimed set-up (tree, topology, protocol convergence or warm state) and
// a timed phase.  Round seeds come from the benchmark's --seed; the
// library only ever sees the generated options.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "measure.h"
#include "src/topo/topology.h"

namespace perfbench {

/// Named per-layer metric values.
using Metrics = std::map<std::string, double>;

/// `full` is the measured configuration; `toy` shrinks every tree and
/// schedule so the self-check runs in seconds.
enum class Size { kFull, kToy };

/// What one round's timed phase did.
struct RoundOutcome {
  std::uint64_t ops = 0;
  /// Ops whose answer was wrong or missing (known model failures).
  std::uint64_t failed = 0;
  /// Deterministic digest of the round's results.
  std::uint64_t fingerprint = 0;
  /// False when an exact identity broke (a benchmark-fatal error).
  bool identity_ok = true;
  /// Why ops failed or the identity broke; empty when clean.
  std::string note;
};

/// Totals over every timed phase of a run, for per-op ratios.
struct TimedTotals {
  std::uint64_t ops = 0;
  /// Library obs counter deltas across the timed phases (traced runs).
  std::map<std::string, std::uint64_t> counters;

  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

/// The obs counters whose timed-phase deltas feed per-layer metrics.
[[nodiscard]] const std::vector<std::string>& timed_counter_names();

class Workload {
 public:
  virtual ~Workload() = default;

  /// parallel::set_num_threads value the workload is measured at.
  [[nodiscard]] virtual int pool() const = 0;
  /// Untimed set-up of one round with round seed `seed`.
  virtual void setup(std::uint64_t seed, Spans& spans) = 0;
  /// The round's timed phase.
  virtual RoundOutcome run(Spans& spans) = 0;
  /// Releases the round's large state (untimed, outside set-up).
  virtual void teardown() {}
  /// Adds the workload's own per-layer metrics (`spans` is empty on an
  /// untraced run).
  virtual void layer_metrics(const TimedTotals& totals, const Spans& spans,
                             Metrics& out) const = 0;
  /// The tree of the most recent round; probes run on it.
  [[nodiscard]] virtual const aspen::Topology& topology() const = 0;
  /// Server checkpoints cut by the last round (serve only).
  [[nodiscard]] virtual const std::vector<std::string>* checkpoints() const {
    return nullptr;
  }
};

/// Returns nullptr for an unknown workload name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      Size size);

}  // namespace perfbench
