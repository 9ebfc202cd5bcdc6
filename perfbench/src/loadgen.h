// Open-loop request scheduling.
//
// Request i of a phase is due at start + i / rate, whatever happened to
// earlier requests: independent users do not wait for each other.  A
// fixed set of connections (workers) takes due requests in order; a
// worker whose previous reply is late sends its next request late, and
// that wait is charged to the request, because latency is measured
// from the due time, not from the send.  Requests can be split into
// lanes, each served by its own workers (a writer and its readers).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <thread>
#include <vector>

#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One scheduled request; times are seconds since the phase start.
struct RequestRecord {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  bool ok = false;
};

struct PhaseResult {
  std::vector<RequestRecord> records;  ///< indexed by request number

  /// Latency of every request from its due time; failures are kMiss.
  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> out;
    out.reserve(records.size());
    for (const auto& r : records) out.push_back(r.ok ? r.done - r.due : kMiss);
    return out;
  }
  /// How late the generator sent each request (send minus due).
  [[nodiscard]] std::vector<double> lags() const {
    std::vector<double> out;
    out.reserve(records.size());
    for (const auto& r : records) out.push_back(r.sent - r.due);
    return out;
  }
  [[nodiscard]] std::size_t failures() const {
    std::size_t n = 0;
    for (const auto& r : records) n += r.ok ? 0 : 1;
    return n;
  }
  /// Successful requests per second of sending: from the first due
  /// time to the last send.  On a phase that kept up this is the rate
  /// the generator sustained; one slow final reply does not dilute it.
  [[nodiscard]] double achieved_rate() const {
    double end = 0.0;
    std::size_t ok = 0;
    for (const auto& r : records) {
      end = std::max(end, r.sent);
      ok += r.ok ? 1 : 0;
    }
    return end > 0.0 ? static_cast<double>(ok) / end : 0.0;
  }
};

/// Runs `count` requests at `rate` per second.  Requests are split into
/// lanes by `lane_of(index)`; worker w serves lane `worker_lanes[w]`,
/// taking that lane's requests in order, so a stall in one lane never
/// holds a request of another.  `send(worker, index)` performs request
/// `index` on that worker's connection and returns whether it succeeded
/// (reply correct); an exception from `send` counts as a failure.
template <typename LaneOf, typename Send>
PhaseResult run_open_loop(double rate, std::size_t count,
                          const std::vector<int>& worker_lanes,
                          LaneOf&& lane_of, Send&& send) {
  PhaseResult result;
  result.records.resize(count);
  int num_lanes = 0;
  for (const int lane : worker_lanes) num_lanes = std::max(num_lanes, lane + 1);
  std::vector<std::vector<std::size_t>> lanes(
      static_cast<std::size_t>(num_lanes));
  for (std::size_t i = 0; i < count; ++i) {
    const int lane = lane_of(i);
    if (lane < 0 || lane >= num_lanes) {
      throw std::invalid_argument("request lane has no worker");
    }
    lanes[static_cast<std::size_t>(lane)].push_back(i);
  }
  std::vector<std::atomic<std::size_t>> next(lanes.size());
  for (auto& n : next) n.store(0);
  const Clock::time_point start = Clock::now();
  auto work = [&](int worker) {
    const auto lane = static_cast<std::size_t>(
        worker_lanes[static_cast<std::size_t>(worker)]);
    for (;;) {
      const std::size_t k = next[lane].fetch_add(1, std::memory_order_relaxed);
      if (k >= lanes[lane].size()) return;
      const std::size_t i = lanes[lane][k];
      RequestRecord& rec = result.records[i];
      rec.due = static_cast<double>(i) / rate;
      // Wait for the due time without sleeping: a halted virtual CPU
      // takes the host's scheduling delay to wake, which would land in
      // the measured latency of this and later requests.
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(rec.due));
      while (Clock::now() < due) std::this_thread::yield();
      rec.sent = seconds_between(start, Clock::now());
      bool ok = false;
      try {
        ok = send(worker, i);
      } catch (const std::exception&) {
        ok = false;
      }
      rec.done = seconds_between(start, Clock::now());
      rec.ok = ok;
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(worker_lanes.size());
  for (std::size_t w = 0; w < worker_lanes.size(); ++w) {
    threads.emplace_back(work, static_cast<int>(w));
  }
  for (auto& t : threads) t.join();
  return result;
}

}  // namespace perfbench
