#include "explore/fingerprint.h"

#include "engine/verdict_engine.h"
#include "enumeration/suite.h"
#include "litmus/catalog.h"

namespace mcmc::explore {

Fingerprint fingerprint_model(const core::MemoryModel& model) {
  Fingerprint result;
  engine::VerdictEngine eng;

  // All nine probes in one batch: the later digit derivations branch on
  // earlier verdicts, but every branch only ever consults L1..L9, so
  // evaluating the full row up front keeps the pipeline batched (and the
  // canonical grouping collapses probes that alias under symmetry).
  const auto probes = litmus::figure3_tests();
  const auto verdicts = eng.run_matrix({model}, probes);
  const auto allowed = [&](int probe_index) {
    return verdicts.get(0, probe_index - 1);  // probes are L1..L9 in order
  };

  // Digit derivations (see verdict_prediction_test.cpp for the closed
  // forms these invert).
  const int ww = allowed(1) ? 1 : 4;

  int rr = 0;
  const bool l3_forbidden = !allowed(3);
  const bool l4_forbidden = !allowed(4);
  const bool l2_forbidden = !allowed(2);
  if (l3_forbidden) {
    rr = 4;
  } else if (l4_forbidden) {
    rr = l2_forbidden ? 3 : 2;
  } else {
    rr = l2_forbidden ? 1 : 0;
  }

  int rw = 1;
  if (!allowed(5)) {
    rw = 4;
  } else if (!allowed(6)) {
    rw = 3;
  }

  // Write-read: L7 separates 4 from {0,1}; L8/L9 separate 0 from 1 where
  // a detection route exists.
  std::vector<int> wr_candidates;
  if (!allowed(7)) {
    wr_candidates.push_back(4);
  } else {
    const bool l8_route = rr >= 2;
    const bool l9_route = ww == 1 && rw >= 3;
    if (l8_route) {
      wr_candidates.push_back(allowed(8) ? 0 : 1);
    } else if (l9_route) {
      wr_candidates.push_back(allowed(9) ? 0 : 1);
    } else {
      wr_candidates.push_back(0);
      wr_candidates.push_back(1);
    }
  }

  for (const int wr : wr_candidates) {
    result.candidates.push_back(ModelChoices{ww, wr, rw, rr});
  }

  // Verify the candidates against the full suite: one batched matrix
  // over {model, candidate models} x suite, then word-wise row equality.
  result.verified = !result.candidates.empty();
  if (result.verified) {
    std::vector<core::MemoryModel> row_models{model};
    for (const auto& candidate : result.candidates) {
      row_models.push_back(candidate.to_model());
    }
    const auto suite = enumeration::corollary1_suite(true);
    const auto matrix = eng.run_matrix(row_models, suite);
    for (int c = 1; c < matrix.rows(); ++c) {
      if (!matrix.rows_equal(0, c)) {
        result.verified = false;
        break;
      }
    }
  }
  return result;
}

}  // namespace mcmc::explore
