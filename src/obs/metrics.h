// Process-wide metrics registry: counters, gauges, fixed-bucket histograms.
//
// Counters are the hot family (the simulator counts every event), so each
// counter name is registered once as a Counter handle — an index into a
// process-wide name table — and the registry keeps counter values in a flat
// array indexed by it.  Gauges and histograms stay an ordered map per
// family.  Export sorts counters by name, so the golden-trace tests and
// bench JSON summaries see the same deterministic order as before.
//
// Thread model: all mutation happens on the orchestrating thread (the
// simulator loop, protocol drivers and chaos campaigns are single-threaded;
// the routing engine records aggregate stats only after its worker pool has
// joined).  The registry therefore carries no locks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace aspen::obs {

/// A fixed-bucket histogram: `bounds` are ascending inclusive upper bounds
/// with an implicit +inf bucket at the end, so `counts` always has
/// `bounds.size() + 1` entries.
struct HistogramData {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Default latency-ish bounds (milliseconds) used when a histogram is first
/// observed without an explicit registration.
[[nodiscard]] const std::vector<double>& default_histogram_bounds();

/// A pre-registered counter name.  Construct one per name at namespace
/// scope (`const obs::Counter kSends{"transport.sends"};`); constructing
/// the same name twice yields the same handle.
class Counter {
 public:
  explicit Counter(std::string_view name);
  [[nodiscard]] std::uint32_t index() const { return index_; }

 private:
  std::uint32_t index_;
};

class MetricsRegistry {
 public:
  /// Adds `delta` to the counter, creating it at zero first.
  void add(Counter counter, std::uint64_t delta = 1) {
    const std::uint32_t i = counter.index();
    if (i >= counter_values_.size()) grow_counters();
    counter_values_[i] += delta;
    counter_present_[i] = 1;
  }

  /// Sets the named gauge to `value` (last write wins).
  void set_gauge(const std::string& name, double value);

  /// Records `value` into the named histogram, registering it with
  /// default_histogram_bounds() on first use.
  void observe(const std::string& name, double value);

  /// Pre-registers a histogram with explicit bucket bounds (ascending).
  /// No-op if the histogram already exists.
  void register_histogram(const std::string& name, std::vector<double> bounds);

  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
  [[nodiscard]] double gauge(const std::string& name) const;
  [[nodiscard]] const HistogramData* histogram(const std::string& name) const;
  [[nodiscard]] bool empty() const;

  /// Every counter touched since the last reset(), sorted by name.
  [[nodiscard]] std::map<std::string, std::uint64_t> counters() const;
  [[nodiscard]] const std::map<std::string, double>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, HistogramData>& histograms()
      const {
    return histograms_;
  }

  /// Drops every metric (names included).
  void reset();

  /// Serializes the registry as one JSON object with "counters", "gauges"
  /// and "histograms" sections, keys sorted.  `indent` spaces prefix every
  /// line so the block can be spliced into an enclosing document.
  [[nodiscard]] std::string to_json(int indent = 0) const;

 private:
  /// Sizes the counter arrays to the process-wide name table.
  void grow_counters();

  /// Indexed by Counter::index(); a counter exports only once present.
  std::vector<std::uint64_t> counter_values_;
  std::vector<char> counter_present_;
  std::map<std::string, double> gauges_;
  std::map<std::string, HistogramData> histograms_;
};

}  // namespace aspen::obs
