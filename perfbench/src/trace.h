// The benchmark's own spans, recorded around calls into each layer.
//
// Spans are kept in memory (one mutex-guarded vector; the traced run
// records a few thousand per second) and written once, at the end of
// the run, as Chrome trace-event JSON, which chrome://tracing and
// Perfetto load.  A disabled tracer records nothing.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "loadgen.h"

namespace perfbench {

struct Span {
  std::string name;   ///< "<layer>.<what>", e.g. "enumeration.next_chunk"
  int tid = 0;        ///< logical thread lane
  double start = 0;   ///< seconds since the tracer's origin
  double dur = 0;     ///< seconds
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 = root
  std::int64_t key = -1;    ///< request id for serve spans, else -1
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] double now() const {
    return seconds_between(origin_, Clock::now());
  }
  [[nodiscard]] double at(Clock::time_point t) const {
    return seconds_between(origin_, t);
  }

  /// Records a finished span; returns its id (0 when disabled).
  std::int64_t add(const std::string& name, int tid, double start, double dur,
                   std::int64_t parent = 0, std::int64_t key = -1);

  /// Time each span name spent not covered by its own child spans,
  /// summed over all spans of that name.
  [[nodiscard]] std::map<std::string, double> self_times() const;
  [[nodiscard]] std::size_t size() const;

  /// Writes the Chrome trace-event JSON; false on I/O failure.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::int64_t next_id_ = 1;
};

}  // namespace perfbench
