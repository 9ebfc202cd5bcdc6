// The cold streamed Theorem-1 sweep: the fence-free sub-space of the
// no-dep naive space (three accesses per thread, three locations;
// 357,858 tests) through explore::distinguishability_streamed with the
// monotone-extremes prefilter, no verdict store, and one engine thread.
// One pass takes about a second, so a run holds many
// passes and reports the median over them.
#pragma once

#include <cstdint>
#include <string>

#include "result.h"
#include "trace.h"

namespace perfbench {

struct SweepConfig {
  double seconds = 10.0;    ///< passes repeat until this much time is used
  std::uint64_t seed = 1;   ///< picks the layer sample (traced run)
  std::string scratch_dir;  ///< files written by the layer measurements
};

/// Pinned gate of the sub-space: its counts, and Theorem-1 containment
/// (every pair it distinguishes, the no-dep Corollary-1 suite does too).
inline constexpr long long kSweepTests = 357858;
inline constexpr long long kSweepClasses = 31130;
inline constexpr long long kSweepPairs = 3841;

void run_sweep(const SweepConfig& config, RunResult& out, Tracer& tracer);

}  // namespace perfbench
