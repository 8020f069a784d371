// The benchmark's one measurement helper: steady-clock timers and spans,
// getrusage deltas per phase, VmHWM peak RSS, order statistics, and the
// JSON writer every workload reports through.  Nothing here touches the
// library; the workloads call into src/ and time those calls from outside.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
[[nodiscard]] double now_s();

/// One getrusage(RUSAGE_SELF) reading; subtracting two gives a phase's
/// share.  CPU times cover every thread of the process.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t minflt = 0;
  /// Involuntary context switches: the witness for host contention.
  std::uint64_t nivcsw = 0;

  [[nodiscard]] double cpu_s() const { return user_s + sys_s; }
  Usage& operator+=(const Usage& other);
};

[[nodiscard]] Usage usage_now();
[[nodiscard]] Usage operator-(const Usage& after, const Usage& before);

/// VmHWM from /proc/self/status, in MB (0 when unreadable).
[[nodiscard]] double peak_rss_mb();

/// Linear-interpolated quantile q in [0, 1] of `values` (0 when empty).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// SplitMix64 finaliser: derives the benchmark's input seeds and folds
/// result fingerprints.
[[nodiscard]] std::uint64_t mix64(std::uint64_t a, std::uint64_t b);

/// Counter-based draws from mix64: the benchmark's own input generator.
class Draws {
 public:
  explicit Draws(std::uint64_t seed) : seed_(seed) {}
  /// Uniform-ish draw in [0, bound); bound must be > 0.
  std::uint64_t below(std::uint64_t bound) {
    return mix64(seed_, counter_++) % bound;
  }

 private:
  std::uint64_t seed_;
  std::uint64_t counter_ = 0;
};

/// In-memory span recorder.  Spans carry a name, start, end and parent
/// span, and all spans of one workload run share the recorder's trace id.
/// A disabled recorder costs one branch per span.
class Spans {
 public:
  struct Span {
    int parent = -1;
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  Spans(std::string trace_id, bool enabled);

  /// Opens a span under the innermost open one; returns its id (-1 when
  /// disabled).
  int open(const char* name);
  void close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Durations in seconds of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Self time (duration minus the time its direct children cover) summed
  /// per span name, over the subtrees rooted at spans called `root`; the
  /// roots' own self time is reported under "unattributed".
  [[nodiscard]] std::map<std::string, double> self_times(
      const std::string& root) const;
  /// One JSON object per span, one per line.  Returns false on I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  std::string trace_id_;
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span ids
};

/// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(Spans& spans, const char* name)
      : spans_(spans), id_(spans.open(name)) {}
  ~ScopedSpan() { spans_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans& spans_;
  int id_;
};

/// Flat JSON object writer with insertion-ordered keys; numbers are
/// printed with all 17 significant digits.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value);
  JsonObject& integer(const std::string& key, std::uint64_t value);
  JsonObject& boolean(const std::string& key, bool value);
  JsonObject& str(const std::string& key, const std::string& value);
  /// Inserts already-serialized JSON (an object or array) under `key`.
  JsonObject& raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

[[nodiscard]] std::string json_quote(const std::string& text);

}  // namespace perfbench
