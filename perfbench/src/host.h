// The CPU time the hypervisor takes from this VM ("steal"), as the
// guest kernel counts it.
#pragma once

#include <cstdio>

namespace perfbench {

/// Cumulative CPU-time counters of all CPUs, in clock ticks.
struct CpuTicks {
  long long steal = 0;
  long long total = 0;
};

/// The /proc/stat "cpu" line; zeros if unreadable.
inline CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  char label[16] = {};
  long long v[8] = {};
  const int n = std::fscanf(f, "%15s %lld %lld %lld %lld %lld %lld %lld %lld",
                            label, &v[0], &v[1], &v[2], &v[3], &v[4], &v[5],
                            &v[6], &v[7]);
  std::fclose(f);
  if (n != 9) return t;
  for (const long long x : v) t.total += x;
  t.steal = v[7];
  return t;
}

/// Share (0..1) of the CPU time between two readings that the host
/// stole; 0 when no tick passed.
inline double steal_share(const CpuTicks& from, const CpuTicks& to) {
  const long long total = to.total - from.total;
  return total > 0 ? static_cast<double>(to.steal - from.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

}  // namespace perfbench
