// VerdictEngine batch semantics: batched verdicts must equal per-call
// core::is_allowed, each test class must be decided once and share its
// row through canonical grouping and an attached verdict store, a batch
// with custom-predicate models must group structurally and skip the
// store, the Adaptive backend must route by event count, and results
// must not depend on the thread count.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "core/analysis.h"
#include "core/checker.h"
#include "engine/verdict_engine.h"
#include "enumeration/naive.h"
#include "explore/matrix.h"
#include "explore/space.h"
#include "litmus/catalog.h"
#include "models/special_fence.h"
#include "models/zoo.h"
#include "store/verdict_store.h"

namespace mcmc {
namespace {

std::vector<core::MemoryModel> mixed_models() {
  std::vector<core::MemoryModel> models = {models::sc(), models::tso(),
                                           models::pso(), models::rmo()};
  models.push_back(explore::ModelChoices{1, 1, 1, 0}.to_model());
  models.push_back(explore::ModelChoices{1, 0, 3, 2}.to_model());
  return models;
}

TEST(VerdictEngineBatch, MatchesPerCallVerdicts) {
  enumeration::NaiveOptions options;
  options.num_locations = 2;
  const auto tests = enumeration::sample_naive_tests(options, 30, 2024);
  const auto models = mixed_models();

  engine::VerdictEngine eng;
  const auto matrix = eng.run_matrix(models, tests);

  for (std::size_t m = 0; m < models.size(); ++m) {
    for (std::size_t t = 0; t < tests.size(); ++t) {
      const core::Analysis an(tests[t].program());
      EXPECT_EQ(matrix.get(static_cast<int>(m), static_cast<int>(t)),
                core::is_allowed(an, models[m], tests[t].outcome()))
          << models[m].name() << " on test " << t;
    }
  }
  EXPECT_EQ(eng.last_stats().cells, models.size() * tests.size());
  // Analyses are built lazily, only for tests that reach evaluation:
  // one per canonical class of the sample, never more than the batch.
  EXPECT_GT(eng.last_stats().unique_analyses, 0u);
  EXPECT_LE(eng.last_stats().unique_analyses, tests.size());
}

/// Store buffering, and its image under thread exchange + location
/// renaming: canonically identical, structurally distinct.
std::vector<litmus::LitmusTest> sb_and_twin() {
  core::Program sb({{core::make_write(0, 1), core::make_read(1, 0)},
                    {core::make_write(1, 1), core::make_read(0, 1)}});
  core::Program sb_twin({{core::make_write(1, 1), core::make_read(0, 0)},
                         {core::make_write(0, 1), core::make_read(1, 1)}});
  core::Outcome both_stale({{0, 0}, {1, 0}});
  return {litmus::LitmusTest("sb", sb, both_stale),
          litmus::LitmusTest("sb-twin", sb_twin, both_stale)};
}

TEST(VerdictEngineBatch, SymmetricDuplicatesHitTheCache) {
  // The twins share one evaluation within a batch; an attached
  // file-less store serves a later batch without any check.
  const auto tests = sb_and_twin();
  ASSERT_EQ(litmus::canonical_key(tests[0]), litmus::canonical_key(tests[1]));
  ASSERT_NE(litmus::structural_key(tests[0]), litmus::structural_key(tests[1]));

  const std::vector<core::MemoryModel> models = {models::tso()};
  store::VerdictStore verdicts(store::StoreMeta::from_models(models));
  engine::VerdictEngine eng;
  eng.set_store(&verdicts);
  const auto matrix = eng.run_matrix(models, tests);
  EXPECT_EQ(matrix.get(0, 0), matrix.get(0, 1));
  EXPECT_TRUE(matrix.get(0, 0));  // TSO allows SB's stale outcome
  EXPECT_EQ(eng.last_stats().checks_run, 1u);
  EXPECT_GT(eng.last_stats().dedup_hits, 0u);
  EXPECT_EQ(verdicts.size(), 1u);

  // A later batch is served entirely from the store.
  const auto again = eng.run_matrix(models, tests);
  EXPECT_EQ(again, matrix);
  EXPECT_EQ(eng.last_stats().checks_run, 0u);
  EXPECT_GT(eng.last_stats().store_hits, 0u);
}

TEST(VerdictEngineBatch, CustomPredicateModelsBypassTheStore) {
  // One custom-predicate model makes the whole batch group by
  // structural keys, which the store does not hold: the thread-swapped
  // twins are two classes, every model checks both on every batch, and
  // nothing is probed or stored — not even the custom-free model's row.
  const auto tests = sb_and_twin();
  const std::vector<core::MemoryModel> models = {
      models::tso(), models::special_fence_chain(1)};
  ASSERT_TRUE(models[1].formula().has_custom());
  ASSERT_TRUE(store::model_store_key(models[1]).empty());
  store::VerdictStore verdicts(store::StoreMeta::from_models(models));
  engine::VerdictEngine eng;
  eng.set_store(&verdicts);

  const auto first = eng.run_matrix(models, tests);
  EXPECT_EQ(eng.last_stats().checks_run, 4u);  // 2 classes x 2 models
  EXPECT_EQ(eng.last_stats().dedup_hits, 0u);
  EXPECT_EQ(eng.last_stats().store_hits + eng.last_stats().store_misses, 0u);
  EXPECT_EQ(verdicts.size(), 0u);

  const auto second = eng.run_matrix(models, tests);
  EXPECT_EQ(second, first);
  EXPECT_EQ(eng.last_stats().checks_run, 4u);
  EXPECT_EQ(verdicts.size(), 0u);
}

TEST(VerdictEngineBatch, CustomPredicateModelsSkipCanonicalSharing) {
  // Thread-swapped twins must NOT share verdicts under a model whose
  // formula carries an opaque custom predicate: the engine falls back to
  // structural keys, so the twins evaluate separately.
  const auto tests = sb_and_twin();

  const std::vector<core::MemoryModel> models = {
      models::special_fence_chain(1)};
  ASSERT_TRUE(models[0].formula().has_custom());
  engine::VerdictEngine eng;
  const auto matrix = eng.run_matrix(models, tests);
  EXPECT_EQ(eng.last_stats().checks_run, 2u);
  EXPECT_EQ(eng.last_stats().dedup_hits, 0u);
  // The twins are still semantically symmetric for this model's built-in
  // axioms, so the verdicts agree even though they were not shared.
  EXPECT_EQ(matrix.get(0, 0), matrix.get(0, 1));
}

TEST(VerdictEngineBatch, ResultsIdenticalAcrossThreadCounts) {
  enumeration::NaiveOptions options;
  const auto tests = enumeration::sample_naive_tests(options, 25, 7);
  const auto models = mixed_models();

  engine::EngineOptions serial;
  serial.num_threads = 1;
  engine::EngineOptions wide;
  wide.num_threads = 8;

  engine::VerdictEngine eng1(serial);
  engine::VerdictEngine engN(wide);
  const auto bits1 = eng1.run_matrix(models, tests);
  const auto bitsN = engN.run_matrix(models, tests);
  EXPECT_EQ(bits1, bitsN);
  EXPECT_EQ(eng1.last_stats().threads_used, 1);
  EXPECT_EQ(eng1.last_stats().checks_run, engN.last_stats().checks_run);

  // And with grouping off (every cell its own job).
  engine::EngineOptions raw_serial = serial;
  raw_serial.cache_enabled = false;
  engine::EngineOptions raw_wide = wide;
  raw_wide.cache_enabled = false;
  engine::VerdictEngine raw1(raw_serial);
  engine::VerdictEngine rawN(raw_wide);
  EXPECT_EQ(raw1.run_matrix(models, tests), bits1);
  EXPECT_EQ(rawN.run_matrix(models, tests), bits1);
  EXPECT_EQ(rawN.last_stats().checks_run, models.size() * tests.size());
}

TEST(VerdictEngineBatch, SatAndExplicitBackendsAgree) {
  enumeration::NaiveOptions options;
  options.num_locations = 2;
  options.max_accesses_per_thread = 2;
  const auto tests = enumeration::sample_naive_tests(options, 10, 99);
  const auto models = mixed_models();

  engine::EngineOptions sat;
  sat.backend = engine::Backend::Sat;
  engine::EngineOptions explicit_opts;
  explicit_opts.backend = engine::Backend::Explicit;

  engine::VerdictEngine sat_eng(sat);
  engine::VerdictEngine explicit_eng(explicit_opts);
  EXPECT_EQ(sat_eng.run_matrix(models, tests),
            explicit_eng.run_matrix(models, tests));
  EXPECT_GT(sat_eng.last_stats().sat_checks, 0u);
  EXPECT_EQ(sat_eng.last_stats().explicit_checks, 0u);
  EXPECT_GT(explicit_eng.last_stats().explicit_checks, 0u);
  EXPECT_EQ(explicit_eng.last_stats().sat_checks, 0u);
}

/// One thread of `n` writes: a test with exactly `n` events.
litmus::LitmusTest writes_only(int n) {
  std::vector<core::Instruction> thread;
  for (int i = 0; i < n; ++i) thread.push_back(core::make_write(i % 2, i + 1));
  return litmus::LitmusTest("w" + std::to_string(n), core::Program({thread}),
                            core::Outcome());
}

TEST(VerdictEngineBatch, AdaptiveRoutesByExplicitEventLimit) {
  const std::vector<core::MemoryModel> models = {models::tso()};
  engine::VerdictEngine eng;  // Backend::Adaptive by default
  ASSERT_EQ(eng.options().backend, engine::Backend::Adaptive);

  const auto small = writes_only(engine::kExplicitMaxEvents);
  ASSERT_EQ(core::Analysis(small.program()).num_events(),
            engine::kExplicitMaxEvents);
  EXPECT_TRUE(eng.run_matrix(models, {small}).get(0, 0));
  EXPECT_EQ(eng.last_stats().explicit_checks, 1u);
  EXPECT_EQ(eng.last_stats().sat_checks, 0u);

  const auto large = writes_only(engine::kExplicitMaxEvents + 1);
  EXPECT_TRUE(eng.run_matrix(models, {large}).get(0, 0));
  EXPECT_EQ(eng.last_stats().explicit_checks, 0u);
  EXPECT_EQ(eng.last_stats().sat_checks, 1u);
}

TEST(VerdictEngineBatch, MixedCustomBatchMatchesDirectLoop) {
  // Custom and custom-free models in one batch: structural grouping,
  // no store, and every bit equal to a direct core::is_allowed loop —
  // with and without a store attached, at 1 and 4 threads.
  enumeration::NaiveOptions options;
  options.num_locations = 2;
  auto tests = sb_and_twin();
  for (auto& test : enumeration::sample_naive_tests(options, 30, 515)) {
    tests.push_back(std::move(test));
  }
  auto models = mixed_models();
  models.push_back(models::special_fence_chain(1));

  engine::BitMatrix oracle(static_cast<int>(models.size()),
                           static_cast<int>(tests.size()));
  for (std::size_t t = 0; t < tests.size(); ++t) {
    const core::Analysis an(tests[t].program());
    for (std::size_t m = 0; m < models.size(); ++m) {
      oracle.set(static_cast<int>(m), static_cast<int>(t),
                 core::is_allowed(an, models[m], tests[t].outcome()));
    }
  }

  std::set<std::string> structural_classes;
  for (const auto& test : tests) {
    structural_classes.insert(litmus::structural_key(test));
  }
  ASSERT_GT(structural_classes.size(), 2u);

  for (const int threads : {1, 4}) {
    for (const bool with_store : {false, true}) {
      store::VerdictStore verdicts(store::StoreMeta::from_models(models));
      engine::EngineOptions eo;
      eo.num_threads = threads;
      engine::VerdictEngine eng(eo);
      if (with_store) eng.set_store(&verdicts);
      EXPECT_EQ(eng.run_matrix(models, tests), oracle)
          << "threads=" << threads << " store=" << with_store;
      EXPECT_EQ(eng.last_stats().store_hits + eng.last_stats().store_misses,
                0u);
      EXPECT_EQ(verdicts.size(), 0u);
      // One row per structural class: the twins share none.
      EXPECT_EQ(eng.last_stats().checks_run,
                structural_classes.size() * models.size());
    }
  }
}

TEST(VerdictEngineBatch, EachCanonicalClassIsDecidedOnce) {
  // A 1-location, 2-access sample is full of canonical duplicates:
  // each class's row is checked once under every model, every other
  // member is a dedup hit, and the store receives one row per class.
  enumeration::NaiveOptions options;
  options.num_locations = 1;
  options.max_accesses_per_thread = 2;
  options.fences = false;
  const auto tests = enumeration::sample_naive_tests(options, 120, 77);
  const auto models = mixed_models();
  std::set<std::string> classes;
  for (const auto& test : tests) classes.insert(litmus::canonical_key(test));
  ASSERT_LT(classes.size(), tests.size());

  store::VerdictStore verdicts(store::StoreMeta::from_models(models));
  engine::VerdictEngine eng;
  eng.set_store(&verdicts);
  const auto matrix = eng.run_matrix(models, tests);
  const auto& stats = eng.last_stats();
  EXPECT_EQ(stats.checks_run, classes.size() * models.size());
  EXPECT_EQ(stats.dedup_hits,
            (tests.size() - classes.size()) * models.size());
  EXPECT_EQ(stats.store_misses, classes.size() * models.size());
  EXPECT_EQ(stats.unique_analyses, classes.size());
  EXPECT_EQ(verdicts.size(), classes.size());

  // The rows the store now holds serve the whole batch again.
  EXPECT_EQ(eng.run_matrix(models, tests), matrix);
  EXPECT_EQ(eng.last_stats().checks_run, 0u);
  EXPECT_EQ(eng.last_stats().store_hits, classes.size() * models.size());
}

TEST(AdmissibilityMatrixBounds, AllowedRejectsOutOfRangeIndices) {
  const std::vector<core::MemoryModel> models = {models::sc(), models::tso()};
  const auto tests = litmus::figure3_tests();
  const explore::AdmissibilityMatrix matrix(models, tests);
  EXPECT_TRUE(matrix.allowed(1, 6));  // TSO allows L7 (store buffering)
  EXPECT_THROW((void)matrix.allowed(-1, 0), std::invalid_argument);
  EXPECT_THROW((void)matrix.allowed(0, -1), std::invalid_argument);
  EXPECT_THROW((void)matrix.allowed(2, 0), std::invalid_argument);
  EXPECT_THROW((void)matrix.allowed(0, 9), std::invalid_argument);
  EXPECT_THROW((void)matrix.compare(0, 2), std::invalid_argument);
  EXPECT_THROW((void)matrix.distinguishing_tests(-1, 0),
               std::invalid_argument);
}

TEST(AdmissibilityMatrixBounds, WordWiseOpsMatchPerCellLoops) {
  const auto space = explore::model_space(false);
  std::vector<core::MemoryModel> models;
  for (const auto& c : space) models.push_back(c.to_model());
  const auto tests = litmus::figure3_tests();
  const explore::AdmissibilityMatrix matrix(models, tests);

  for (int a = 0; a < matrix.num_models(); a += 5) {
    for (int b = a + 1; b < matrix.num_models(); b += 7) {
      bool first_extra = false;
      bool second_extra = false;
      std::vector<int> expected_diff;
      std::vector<int> expected_first_only;
      for (int t = 0; t < matrix.num_tests(); ++t) {
        const bool va = matrix.allowed(a, t);
        const bool vb = matrix.allowed(b, t);
        if (va && !vb) first_extra = true;
        if (vb && !va) second_extra = true;
        if (va != vb) expected_diff.push_back(t);
        if (va && !vb) expected_first_only.push_back(t);
      }
      explore::Relation expected = explore::Relation::Equivalent;
      if (first_extra && second_extra) {
        expected = explore::Relation::Incomparable;
      } else if (first_extra) {
        expected = explore::Relation::FirstWeaker;
      } else if (second_extra) {
        expected = explore::Relation::FirstStronger;
      }
      EXPECT_EQ(matrix.compare(a, b), expected);
      EXPECT_EQ(matrix.distinguishing_tests(a, b), expected_diff);
      EXPECT_EQ(matrix.allowed_by_first_only(a, b), expected_first_only);
    }
  }
}

}  // namespace
}  // namespace mcmc
