// E9 (ablation) -- designed templates vs random enumeration.
//
// DESIGN.md calls out the paper's central design choice: compare models
// with the small *designed* template suite instead of mass enumeration.
// This harness quantifies it: how much of the 90-model space's structure
// (equivalence classes; distinguishable pairs) is recovered by
//
//   * the Corollary-1 template suite (124 tests),
//   * the nine Figure-3 tests,
//   * random naive tests of increasing count,
//
// and at what admissibility-checking cost.
#include <cstdio>

#include "engine/verdict_engine.h"
#include "enumeration/naive.h"
#include "enumeration/suite.h"
#include "explore/cover.h"
#include "explore/matrix.h"
#include "explore/space.h"
#include "litmus/catalog.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace mcmc;

/// Number of equivalence classes and distinguishable pairs induced by a
/// verdict matrix.
struct Power {
  int classes = 0;
  std::size_t pairs = 0;
};

Power measure(const explore::AdmissibilityMatrix& matrix) {
  Power p;
  const int n = matrix.num_models();
  std::vector<int> cls(static_cast<std::size_t>(n), -1);
  for (int a = 0; a < n; ++a) {
    if (cls[static_cast<std::size_t>(a)] >= 0) continue;
    cls[static_cast<std::size_t>(a)] = p.classes;
    for (int b = a + 1; b < n; ++b) {
      if (cls[static_cast<std::size_t>(b)] < 0 &&
          matrix.compare(a, b) == explore::Relation::Equivalent) {
        cls[static_cast<std::size_t>(b)] = p.classes;
      }
    }
    ++p.classes;
  }
  p.pairs = explore::distinguishable_pairs(matrix).size();
  return p;
}

}  // namespace

int main() {
  std::printf("== E9 / ablation: designed templates vs random tests ==\n\n");

  const auto space = explore::model_space(true);
  std::vector<core::MemoryModel> models;
  for (const auto& c : space) models.push_back(c.to_model());

  util::Table table({"test set", "#tests", "equiv. classes (true: 82)",
                     "distinguished pairs (true: 3997)", "time (ms)"});

  // One engine (one thread pool) across every test set; each matrix
  // groups its canonically symmetric tests into one check.
  engine::VerdictEngine eng;
  auto add = [&](const std::string& label,
                 const std::vector<litmus::LitmusTest>& tests) {
    util::Timer timer;
    const explore::AdmissibilityMatrix matrix(eng, models, tests);
    const Power p = measure(matrix);
    table.add_row({label, std::to_string(tests.size()),
                   std::to_string(p.classes), std::to_string(p.pairs),
                   std::to_string(static_cast<long long>(timer.millis()))});
  };

  add("Corollary-1 template suite", enumeration::corollary1_suite(true));
  add("Figure-3 nine tests", litmus::figure3_tests());
  enumeration::NaiveOptions options;
  for (const int count : {50, 200, 1000}) {
    add("random naive x" + std::to_string(count),
        enumeration::sample_naive_tests(options, count, 7));
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("engine totals: %s\n\n", eng.total_stats().to_string().c_str());
  std::printf(
      "Reading: random tests approach but do not reliably reach the true\n"
      "structure (the same-address write-read distinctions need the L8/L9\n"
      "shapes, which random programs rarely produce with the right\n"
      "outcome), while the designed 9..124-test sets recover it exactly\n"
      "at a fraction of the checking cost.\n");
  return 0;
}
