// Summary statistics with the benchmark's reporting rules.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

/// A latency or duration sample that counts as a miss: failed and
/// refused requests are recorded with this value, so they exceed any
/// percentile limit instead of vanishing from the sample.
inline constexpr double kMiss = std::numeric_limits<double>::infinity();

/// Median of a sample (mean of the two middle values for even sizes);
/// 0 for an empty sample.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A window (a sweep pass, a serve request block) in which the host
/// stole more than this share of the VM's CPU time measured the
/// neighbours as much as the program.
inline constexpr double kQuietSteal = 0.02;
/// A run whose windows are not quiet measures on, up to this multiple
/// of its nominal length, to collect quiet ones.
inline constexpr double kMaxStretch = 2.0;

/// Whether a run should measure one more window of `next_s` seconds,
/// having measured for `elapsed_s`: always within its nominal
/// `seconds`; beyond them, up to kMaxStretch times as long, while fewer
/// than `want` windows were quiet.
inline bool measure_more(double elapsed_s, double next_s, double seconds,
                         std::size_t quiet, std::size_t want) {
  const double end = elapsed_s + next_s;
  return end <= seconds || (quiet < want && end <= kMaxStretch * seconds);
}

/// The windows a run reports from, given each window's steal share:
/// every quiet one, or, when fewer than `want` are quiet, the `want`
/// with the least steal (all of them if there are fewer), in order.
inline std::vector<std::size_t> quiet_windows(const std::vector<double>& steal,
                                              std::size_t want) {
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return steal[a] < steal[b];
  });
  std::size_t keep = 0;
  while (keep < order.size() && steal[order[keep]] <= kQuietSteal) ++keep;
  keep = std::max(keep, std::min(want, order.size()));
  order.resize(keep);
  std::sort(order.begin(), order.end());
  return order;
}

/// The values at `indices`.
inline std::vector<double> pick(const std::vector<double>& values,
                                const std::vector<std::size_t>& indices) {
  std::vector<double> out;
  out.reserve(indices.size());
  for (const std::size_t i : indices) out.push_back(values[i]);
  return out;
}

/// A nearest-rank percentile and whether the sample supports it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;    ///< samples strictly after the rank
  bool reportable = false;   ///< beyond >= the required tail size
};

/// Nearest-rank `q` quantile (0 < q < 1).  The benchmark reports a
/// tail percentile only when at least `min_beyond` samples lie beyond
/// it; with fewer, the value is still computed but `reportable` is
/// false and the caller must not publish it as that percentile.
inline Percentile percentile(std::vector<double> v, double q,
                             std::size_t min_beyond = 10) {
  Percentile p;
  p.samples = v.size();
  if (v.empty()) return p;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = std::min(rank == 0 ? 0 : rank - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  p.value = v[idx];
  p.beyond = v.size() - (idx + 1);
  p.reportable = p.beyond >= min_beyond;
  return p;
}

}  // namespace perfbench
