// What one benchmark run reports, and its JSON form.
#pragma once

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, Metric> metrics;  ///< end-to-end (untraced run)
  std::map<std::string, Metric> layers;   ///< per-layer (traced run)
  std::map<std::string, std::string> env;
  /// Raw per-repetition samples behind each reported median.
  std::map<std::string, std::vector<double>> raw;
  std::vector<std::string> gate_failures;

  void fail_gate(const std::string& why) {
    correct = false;
    gate_failures.push_back(why);
  }
};

namespace detail {

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string json_metrics(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
           json_number(metric.value) + ", \"unit\": " +
           json_string(metric.unit) + "}";
    first = false;
  }
  return out + "}";
}

}  // namespace detail

/// One-line JSON: correct/attempted/failed, the end-to-end metrics,
/// the per-layer metrics, the environment, raw samples and gate notes.
inline std::string to_json(const RunResult& r) {
  using detail::json_number;
  using detail::json_string;
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": " + detail::json_metrics(r.metrics);
  out += ", \"layers\": " + detail::json_metrics(r.layers);
  out += ", \"env\": {";
  bool first = true;
  for (const auto& [k, v] : r.env) {
    out += (first ? "" : ", ") + json_string(k) + ": " + json_string(v);
    first = false;
  }
  out += "}, \"raw\": {";
  first = true;
  for (const auto& [k, values] : r.raw) {
    out += (first ? "" : ", ") + json_string(k) + ": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out += (i == 0 ? "" : ", ") + json_number(values[i]);
    }
    out += "]";
    first = false;
  }
  out += "}, \"gate_failures\": [";
  for (std::size_t i = 0; i < r.gate_failures.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(r.gate_failures[i]);
  }
  return out + "]}";
}

}  // namespace perfbench
