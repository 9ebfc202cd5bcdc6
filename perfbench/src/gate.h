// Correctness gate of the serve workloads: every reply's verdict row
// must equal, bit for bit, the row VerdictEngine::run_matrix computed
// in-process for the same test before the daemon started.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/bit_matrix.h"
#include "serve/protocol.h"

namespace perfbench {

/// Packs column `test` of a models x tests verdict matrix into 64-bit
/// words (bit m = model m), the layout of VerdictRowWire::bits.
inline std::vector<std::uint64_t> column_words(
    const mcmc::engine::BitMatrix& verdicts, int test) {
  std::vector<std::uint64_t> words(
      (static_cast<std::size_t>(verdicts.rows()) + 63) / 64, 0);
  for (int m = 0; m < verdicts.rows(); ++m) {
    if (verdicts.get(m, test)) {
      words[static_cast<std::size_t>(m) / 64] |= 1ULL << (m % 64);
    }
  }
  return words;
}

/// True iff `row` answers every one of `num_models` models and its
/// verdicts equal `expected`.  `want_store` additionally requires the
/// row to have been served from the store (a warm-store request the
/// engine had to compute means the store lost the row).
inline bool row_matches(const mcmc::serve::VerdictRowWire& row,
                        const std::vector<std::uint64_t>& expected,
                        std::size_t num_models, bool want_store) {
  if (row.num_models != num_models) return false;
  if (row.source == mcmc::serve::VerdictSource::kUnknown) return false;
  if (want_store && row.source != mcmc::serve::VerdictSource::kStore) {
    return false;
  }
  if (row.bits.size() != expected.size() ||
      row.valid.size() != expected.size()) {
    return false;
  }
  for (std::size_t m = 0; m < num_models; ++m) {
    if (!row.known(static_cast<int>(m))) return false;
    const bool want = (expected[m / 64] >> (m % 64)) & 1ULL;
    if (row.allowed(static_cast<int>(m)) != want) return false;
  }
  return true;
}

}  // namespace perfbench
