#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

namespace perfbench {

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

Usage& Usage::operator+=(const Usage& other) {
  user_s += other.user_s;
  sys_s += other.sys_s;
  minflt += other.minflt;
  nivcsw += other.nivcsw;
  return *this;
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  Usage u;
  u.user_s = seconds(ru.ru_utime);
  u.sys_s = seconds(ru.ru_stime);
  u.minflt = static_cast<std::uint64_t>(ru.ru_minflt);
  u.nivcsw = static_cast<std::uint64_t>(ru.ru_nivcsw);
  return u;
}

Usage operator-(const Usage& after, const Usage& before) {
  Usage d;
  d.user_s = after.user_s - before.user_s;
  d.sys_s = after.sys_s - before.sys_s;
  d.minflt = after.minflt - before.minflt;
  d.nivcsw = after.nivcsw - before.nivcsw;
  return d;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Spans::Spans(std::string trace_id, bool enabled)
    : trace_id_(std::move(trace_id)), enabled_(enabled) {}

int Spans::open(const char* name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      Span{open_.empty() ? -1 : open_.back(), name, now_s(), 0.0});
  open_.push_back(id);
  return id;
}

void Spans::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s = now_s();
  // Spans close in LIFO order (they are scoped), so the top is `id`.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Spans::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

std::map<std::string, double> Spans::self_times(
    const std::string& root) const {
  std::vector<double> children(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    // Find whether span i lies in (or is) a subtree rooted at `root`.
    int at = static_cast<int>(i);
    while (at >= 0 && spans_[static_cast<std::size_t>(at)].name != root) {
      at = spans_[static_cast<std::size_t>(at)].parent;
    }
    if (at < 0) continue;
    const Span& s = spans_[i];
    const double own = (s.end_s - s.start_s) - children[i];
    self[static_cast<int>(i) == at ? "unattributed" : s.name] += own;
  }
  return self;
}

bool Spans::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << JsonObject()
               .str("trace", trace_id_)
               .integer("id", i)
               .num("parent", s.parent)
               .str("name", s.name)
               .num("start_s", s.start_s)
               .num("end_s", s.end_s)
               .dump()
        << "\n";
  }
  return static_cast<bool>(out);
}

std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

JsonObject& JsonObject::num(const std::string& key, double value) {
  char buf[40];
  if (!std::isfinite(value)) value = 0.0;
  std::snprintf(buf, sizeof buf, "%.17g", value);
  fields_.emplace_back(key, buf);
  return *this;
}

JsonObject& JsonObject::integer(const std::string& key, std::uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::boolean(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, json_quote(value));
  return *this;
}

JsonObject& JsonObject::raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_quote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench
