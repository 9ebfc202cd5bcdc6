#include "trace.h"

#include <cstdio>
#include <unordered_map>

namespace perfbench {

std::int64_t Tracer::add(const std::string& name, int tid, double start,
                         double dur, std::int64_t parent,
                         std::int64_t key) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t id = next_id_++;
  spans_.push_back(Span{name, tid, start, dur < 0 ? 0 : dur, id, parent, key});
  return id;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_times() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::int64_t, double> child_time;
  for (const auto& s : spans_) {
    if (s.parent != 0) child_time[s.parent] += s.dur;
  }
  std::map<std::string, double> out;
  for (const auto& s : spans_) {
    const auto it = child_time.find(s.id);
    const double covered = it == child_time.end() ? 0.0 : it->second;
    out[s.name] += s.dur > covered ? s.dur - covered : 0.0;
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto dot = s.name.find('.');
    const std::string cat =
        dot == std::string::npos ? s.name : s.name.substr(0, dot);
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%lld,\"parent\":%lld,\"request\":%lld}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), cat.c_str(), s.tid,
                 s.start * 1e6, s.dur * 1e6, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.key));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
