#include "src/obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "src/util/contracts.h"

namespace aspen::obs {
namespace {

/// Formats a double the way every exporter in this module does: fixed six
/// decimal places, locale-independent.  Deterministic output is the whole
/// point of the obs layer, so no stream formatting anywhere.
std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

const std::vector<double>& default_histogram_bounds() {
  static const std::vector<double> kBounds{0.5,  1.0,   2.5,   5.0,
                                           10.0, 25.0,  50.0,  100.0,
                                           250.0, 500.0, 1000.0};
  return kBounds;
}

namespace {

/// The process-wide counter name table.  Handles are registered at static
/// initialization or on the orchestrator thread, like every emission.
struct CounterNames {
  std::vector<std::string> names;
  std::map<std::string, std::uint32_t, std::less<>> index;
};

CounterNames& counter_names() {
  static CounterNames table;
  return table;
}

}  // namespace

Counter::Counter(std::string_view name) {
  CounterNames& table = counter_names();
  const auto it = table.index.find(name);
  if (it != table.index.end()) {
    index_ = it->second;
    return;
  }
  index_ = static_cast<std::uint32_t>(table.names.size());
  table.names.emplace_back(name);
  table.index.emplace(table.names.back(), index_);
}

void MetricsRegistry::grow_counters() {
  const std::size_t size = counter_names().names.size();
  counter_values_.resize(size, 0);
  counter_present_.resize(size, 0);
}

std::map<std::string, std::uint64_t> MetricsRegistry::counters() const {
  std::map<std::string, std::uint64_t> out;
  const std::vector<std::string>& names = counter_names().names;
  for (std::size_t i = 0; i < counter_present_.size(); ++i) {
    if (counter_present_[i] != 0) out.emplace(names[i], counter_values_[i]);
  }
  return out;
}

void MetricsRegistry::set_gauge(const std::string& name, double value) {
  gauges_[name] = value;
}

void MetricsRegistry::register_histogram(const std::string& name,
                                         std::vector<double> bounds) {
  ASPEN_ASSERT(std::is_sorted(bounds.begin(), bounds.end()),
               "histogram bounds must be ascending: ", name);
  auto [it, inserted] = histograms_.try_emplace(name);
  if (!inserted) return;
  it->second.bounds = std::move(bounds);
  it->second.counts.assign(it->second.bounds.size() + 1, 0);
}

void MetricsRegistry::observe(const std::string& name, double value) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    register_histogram(name, default_histogram_bounds());
    it = histograms_.find(name);
  }
  HistogramData& h = it->second;
  // Bounds are inclusive upper bounds (Prometheus "le" semantics): the
  // bucket for `value` is the first bound >= value.
  const auto bucket = static_cast<std::size_t>(
      std::lower_bound(h.bounds.begin(), h.bounds.end(), value) -
      h.bounds.begin());
  ++h.counts[bucket];
  ++h.count;
  h.sum += value;
}

std::uint64_t MetricsRegistry::counter(const std::string& name) const {
  const CounterNames& table = counter_names();
  const auto it = table.index.find(name);
  if (it == table.index.end() || it->second >= counter_present_.size()) {
    return 0;
  }
  return counter_values_[it->second];
}

double MetricsRegistry::gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

const HistogramData* MetricsRegistry::histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

bool MetricsRegistry::empty() const {
  return std::ranges::none_of(counter_present_,
                              [](char present) { return present != 0; }) &&
         gauges_.empty() && histograms_.empty();
}

void MetricsRegistry::reset() {
  std::ranges::fill(counter_values_, 0);
  std::ranges::fill(counter_present_, 0);
  gauges_.clear();
  histograms_.clear();
}

std::string MetricsRegistry::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::string out;
  out += pad + "{\n";

  out += pad + "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters()) {
    out += first ? "\n" : ",\n";
    out += pad + "    " + quote(name) + ": " + std::to_string(value);
    first = false;
  }
  out += first ? "},\n" : "\n" + pad + "  },\n";

  out += pad + "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges_) {
    out += first ? "\n" : ",\n";
    out += pad + "    " + quote(name) + ": " + format_double(value);
    first = false;
  }
  out += first ? "},\n" : "\n" + pad + "  },\n";

  out += pad + "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n" : ",\n";
    out += pad + "    " + quote(name) + ": {\"count\": " +
           std::to_string(h.count) + ", \"sum\": " + format_double(h.sum) +
           ", \"buckets\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out += ", ";
      out += "{\"le\": ";
      out += i < h.bounds.size() ? format_double(h.bounds[i]) : "\"inf\"";
      out += ", \"count\": " + std::to_string(h.counts[i]) + "}";
    }
    out += "]}";
    first = false;
  }
  out += first ? "}\n" : "\n" + pad + "  }\n";

  out += pad + "}";
  return out;
}

}  // namespace aspen::obs
