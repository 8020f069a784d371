// Observability front door: ObsConfig, the process-wide registry/tracer
// singletons, and the inline emit helpers every instrumented hot path uses.
//
// Cost model (the acceptance bar is bench_routing_scale within noise with
// obs compiled in but disabled): each helper is a single load of a plain
// global bool plus a predicted-not-taken branch.  Nothing else happens
// until the user opts in via configure(), the CLI's --metrics=/--trace=
// flags, or ScopedObs.
//
// Thread model: configuration and emission are orchestrator-thread only.
// Parallel code (the routing worker pool) must never call these helpers;
// it aggregates into stats structs and the orchestration level emits once
// after the join.  That keeps traces byte-identical across --threads=N and
// keeps the singletons lock-free.
#pragma once

#include <cstdint>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace aspen::obs {

struct ObsConfig {
  bool metrics = false;            ///< enable the metrics registry
  bool trace = false;              ///< enable the event tracer
  std::size_t trace_capacity = 1u << 16;  ///< ring size in records
};

/// Installs `config`, clearing any previously collected data.  Changing
/// trace_capacity rebuilds the ring.
void configure(const ObsConfig& config);

/// The configuration most recently installed (all-off at startup).
[[nodiscard]] ObsConfig config();

/// Clears collected metrics and trace records without touching the enable
/// flags — call between scenarios that must not see each other's data.
void reset_collected();

namespace detail {
extern bool g_metrics_enabled;
extern bool g_trace_enabled;
}  // namespace detail

[[nodiscard]] inline bool metrics_enabled() {
  return detail::g_metrics_enabled;
}
[[nodiscard]] inline bool trace_enabled() { return detail::g_trace_enabled; }

/// The process-wide registry/tracer.  Valid to call regardless of the
/// enable flags (tests read snapshots after disabling emission).
[[nodiscard]] MetricsRegistry& metrics();
[[nodiscard]] Tracer& tracer();

// ---- emit helpers (the only API instrumented code should touch) --------

/// Counts through a pre-registered handle (an array index, no lookup).
inline void count(Counter counter, std::uint64_t delta = 1) {
  if (metrics_enabled()) metrics().add(counter, delta);
}

inline void gauge_set(const char* name, double value) {
  if (metrics_enabled()) metrics().set_gauge(name, value);
}

inline void observe(const char* name, double value) {
  if (metrics_enabled()) metrics().observe(name, value);
}

inline void trace_event(double t_ms, TraceKind kind, std::uint32_t a = 0,
                        std::uint32_t b = 0, std::uint64_t value = 0,
                        const char* detail = "") {
  if (trace_enabled()) tracer().emit(t_ms, kind, a, b, value, detail);
}

/// RAII emission pause: clears the enable flags for the scope and restores
/// them on exit, leaving collected data untouched.  Benchmarks wrap their
/// timed regions in this so they measure the obs-disabled cost of the code
/// under test while the untimed surroundings keep populating the registry.
class PauseObs {
 public:
  PauseObs()
      : metrics_(detail::g_metrics_enabled),
        trace_(detail::g_trace_enabled) {
    detail::g_metrics_enabled = false;
    detail::g_trace_enabled = false;
  }
  ~PauseObs() {
    detail::g_metrics_enabled = metrics_;
    detail::g_trace_enabled = trace_;
  }
  PauseObs(const PauseObs&) = delete;
  PauseObs& operator=(const PauseObs&) = delete;

 private:
  bool metrics_;
  bool trace_;
};

/// RAII enable/restore for tests and scoped CLI runs: installs `config` on
/// construction and restores the previous configuration (clearing data
/// collected inside the scope) on destruction.
class ScopedObs {
 public:
  explicit ScopedObs(const ObsConfig& config) : previous_(obs::config()) {
    configure(config);
  }
  ~ScopedObs() { configure(previous_); }
  ScopedObs(const ScopedObs&) = delete;
  ScopedObs& operator=(const ScopedObs&) = delete;

 private:
  ObsConfig previous_;
};

}  // namespace aspen::obs
