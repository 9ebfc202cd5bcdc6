#include "engine/verdict_engine.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "core/analysis.h"
#include "core/prepared.h"
#include "engine/sharded_key_set.h"
#include "store/verdict_store.h"
#include "util/check.h"
#include "util/hash128.h"
#include "util/mutex.h"
#include "util/timer.h"

namespace mcmc::engine {

std::string to_string(Backend backend) {
  switch (backend) {
    case Backend::Explicit:
      return "explicit";
    case Backend::Sat:
      return "sat";
    case Backend::Adaptive:
      return "adaptive";
  }
  MCMC_UNREACHABLE("bad backend");
}

bool parse_backend(const std::string& text, Backend& out) {
  if (text == "explicit") {
    out = Backend::Explicit;
  } else if (text == "sat") {
    out = Backend::Sat;
  } else if (text == "adaptive") {
    out = Backend::Adaptive;
  } else {
    return false;
  }
  return true;
}

EngineStats& EngineStats::operator+=(const EngineStats& other) {
  cells += other.cells;
  checks_run += other.checks_run;
  dedup_hits += other.dedup_hits;
  store_hits += other.store_hits;
  store_misses += other.store_misses;
  explicit_checks += other.explicit_checks;
  sat_checks += other.sat_checks;
  unique_analyses += other.unique_analyses;
  rf_enums_saved += other.rf_enums_saved;
  skeletons_reused += other.skeletons_reused;
  formula_evals += other.formula_evals;
  formula_evals_saved += other.formula_evals_saved;
  if (other.threads_used > threads_used) threads_used = other.threads_used;
  wall_seconds += other.wall_seconds;
  return *this;
}

std::string EngineStats::to_string() const {
  std::ostringstream os;
  os << "cells=" << cells << " checks=" << checks_run
     << " dedup_hits=" << dedup_hits;
  if (store_hits + store_misses > 0) {
    os << " store_hits=" << store_hits << "/" << (store_hits + store_misses);
  }
  os << " backends=explicit:" << explicit_checks << "/sat:" << sat_checks
     << " analyses=" << unique_analyses
     << " rf_enums_saved=" << rf_enums_saved
     << " skeletons_reused=" << skeletons_reused
     << " formula_evals=" << formula_evals << " (saved "
     << formula_evals_saved << ")"
     << " threads=" << threads_used << " wall=" << wall_seconds << "s";
  return os.str();
}

VerdictEngine::VerdictEngine(EngineOptions options) : options_(options) {
  MCMC_REQUIRE(options_.num_threads >= 0);
}

VerdictEngine::~VerdictEngine() = default;

int VerdictEngine::effective_threads() const {
  if (options_.num_threads > 0) return options_.num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

core::Engine VerdictEngine::resolve_backend(int num_events) const {
  switch (options_.backend) {
    case Backend::Explicit:
      return core::Engine::Explicit;
    case Backend::Sat:
      return core::Engine::Sat;
    case Backend::Adaptive:
      return num_events <= kExplicitMaxEvents ? core::Engine::Explicit
                                              : core::Engine::Sat;
  }
  MCMC_UNREACHABLE("bad backend");
}

WorkStealingPool& VerdictEngine::pool() {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<WorkStealingPool>(effective_threads());
  }
  return *pool_;
}

std::vector<char> VerdictEngine::run_batch(
    const std::vector<core::MemoryModel>& models,
    const std::vector<litmus::LitmusTest>& tests,
    const std::vector<VerdictRequest>& requests) {
  return run_batch_impl(models, tests, requests, /*allow_grouping=*/true);
}

std::vector<char> VerdictEngine::run_batch_impl(
    const std::vector<core::MemoryModel>& models,
    const std::vector<litmus::LitmusTest>& tests,
    const std::vector<VerdictRequest>& requests, bool allow_grouping,
    std::vector<std::unique_ptr<core::Analysis>>* premade_analyses) {
  util::Timer timer;
  // The stream fast path (allow_grouping off) consults the store itself
  // at stream level, so it is excluded here along with the grouping.
  store::VerdictStore* const vstore = allow_grouping ? store_ : nullptr;
  const bool grouped =
      allow_grouping && (options_.cache_enabled || vstore != nullptr);
  EngineStats stats;
  stats.cells = requests.size();
  std::vector<char> results(requests.size(), 0);

  const int num_models = static_cast<int>(models.size());
  const int num_tests = static_cast<int>(tests.size());
  for (const auto& r : requests) {
    MCMC_REQUIRE_MSG(r.model >= 0 && r.model < num_models,
                     "request model index out of range");
    MCMC_REQUIRE_MSG(r.test >= 0 && r.test < num_tests,
                     "request test index out of range");
  }
  if (requests.empty()) {
    last_stats_ = stats;
    total_stats_ += stats;
    return results;
  }

  // ---- Which tests and models this batch touches. ----
  std::vector<char> test_used(tests.size(), 0);
  std::vector<char> model_used(models.size(), 0);
  for (const auto& r : requests) {
    test_used[static_cast<std::size_t>(r.test)] = 1;
    model_used[static_cast<std::size_t>(r.model)] = 1;
  }
  std::vector<int> used_tests;
  for (int t = 0; t < num_tests; ++t) {
    if (test_used[static_cast<std::size_t>(t)]) used_tests.push_back(t);
  }

  // ---- Model keys.  Structurally identical custom-free formulas share
  // (the store's column key); formulas with custom predicates are keyed
  // by tree identity, which the batch's `models` keeps alive. ----
  struct ModelKey {
    std::string key;
    bool custom = false;
  };
  std::vector<ModelKey> model_keys(models.size());
  bool any_canonical = false;
  bool any_structural = false;
  for (int m = 0; m < num_models; ++m) {
    if (!model_used[static_cast<std::size_t>(m)]) continue;
    auto& mk = model_keys[static_cast<std::size_t>(m)];
    const auto& model = models[static_cast<std::size_t>(m)];
    mk.custom = model.formula().has_custom();
    if (mk.custom) {
      std::ostringstream os;
      os << "P:" << model.formula().identity();
      mk.key = os.str();
      any_structural = true;
    } else {
      mk.key = store::model_store_key(model);
      any_canonical = true;
    }
  }

  const bool need_canonical = grouped && any_canonical;
  const bool need_structural = grouped && any_structural;

  // ---- Test fingerprints.  128-bit canonical/structural fingerprints
  // (litmus::canonical_fingerprint) are all the grouping layer needs: no
  // Analysis and no key string is built here.  Analyses are deferred
  // until the store and the within-batch dedup have spoken, so only
  // tests that actually reach evaluation pay for one. ----
  std::vector<std::unique_ptr<core::PreparedTest>> prepared(tests.size());
  std::vector<std::unique_ptr<core::Analysis>> analyses(tests.size());
  std::vector<util::Key128> canonical_fps(need_canonical ? tests.size() : 0);
  std::vector<util::Key128> structural_fps(need_structural ? tests.size() : 0);
  const int threads = effective_threads();
  if (need_canonical || need_structural) {
    const std::size_t nk = used_tests.size();
    const std::size_t tasks =
        threads > 1 && nk > 1
            ? (nk < static_cast<std::size_t>(threads) * 4
                   ? nk
                   : static_cast<std::size_t>(threads) * 4)
            : 1;
    const auto fingerprint_range = [&](std::size_t r) {
      litmus::KeyScratch scratch;
      const std::size_t begin = nk * r / tasks;
      const std::size_t end = nk * (r + 1) / tasks;
      for (std::size_t k = begin; k < end; ++k) {
        const auto t = static_cast<std::size_t>(used_tests[k]);
        if (need_canonical) {
          canonical_fps[t] = litmus::canonical_fingerprint(tests[t], scratch);
        }
        if (need_structural) {
          structural_fps[t] = litmus::structural_fingerprint(tests[t]);
        }
      }
    };
    if (tasks > 1) {
      pool().parallel_for(tasks, fingerprint_range);
    } else {
      fingerprint_range(0);
    }
  }

  // ---- Intern fingerprints into dense class ids so the per-cell
  // grouping cost is two array reads and one integer hash. ----
  //
  // test_class[t]: class id of test t under each key flavor; tests whose
  // fingerprints collide share a class.  model_class[m]: ditto for model
  // keys (strings — there are few models, many tests).
  std::vector<int> model_class(models.size(), -1);
  std::vector<int> canonical_class(tests.size(), -1);
  std::vector<int> structural_class(tests.size(), -1);
  std::vector<const std::string*> model_class_key;
  std::vector<util::Key128> test_class_key;
  if (grouped) {
    std::unordered_map<std::string, int> model_interner;
    std::unordered_map<util::Key128, int, util::Key128Hash> test_interner;
    const auto intern_test = [&](const util::Key128& key) {
      const auto [it, inserted] =
          test_interner.emplace(key, static_cast<int>(test_class_key.size()));
      if (inserted) test_class_key.push_back(key);
      return it->second;
    };
    for (const int t : used_tests) {
      if (need_canonical) {
        canonical_class[static_cast<std::size_t>(t)] =
            intern_test(canonical_fps[static_cast<std::size_t>(t)]);
      }
      if (need_structural) {
        structural_class[static_cast<std::size_t>(t)] =
            intern_test(structural_fps[static_cast<std::size_t>(t)]);
      }
    }
    for (int m = 0; m < num_models; ++m) {
      if (!model_used[static_cast<std::size_t>(m)]) continue;
      const auto& mk = model_keys[static_cast<std::size_t>(m)];
      const auto [it, inserted] = model_interner.emplace(
          mk.key, static_cast<int>(model_class_key.size()));
      if (inserted) model_class_key.push_back(&mk.key);
      model_class[static_cast<std::size_t>(m)] = it->second;
    }
  }

  // ---- Group cells into jobs: one evaluation per distinct
  // (model class, test class) pair, with store hits resolved
  // immediately.  Ungrouped batches (the streaming fast path: its
  // canonical filter already proved every test unique) skip the whole
  // grouping layer — requests map 1:1 onto checks with no Job, slot
  // list, or group map allocated. ----
  struct Job {
    int model = 0;
    int test = 0;
    int model_cls = -1;
    int test_cls = -1;
    bool from_store = false;
    bool result = false;
    std::vector<std::size_t> slots;
  };
  // Store columns per model class, resolved once (-1 = no column:
  // custom-predicate keys, or models outside the store's zoo).
  std::vector<int> store_cols;
  if (vstore != nullptr) {
    store_cols.resize(model_class_key.size());
    for (std::size_t c = 0; c < model_class_key.size(); ++c) {
      store_cols[c] = vstore->column_of(*model_class_key[c]);
    }
  }

  std::vector<Job> jobs;       // from_store groups stay here too
  std::vector<std::size_t> pending;  // jobs that actually need evaluation
  if (grouped) {
    std::unordered_map<std::uint64_t, std::size_t> group_of;
    group_of.reserve(requests.size());
    const auto num_test_classes =
        static_cast<std::uint64_t>(test_class_key.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto& r = requests[i];
      const int test_cls =
          model_keys[static_cast<std::size_t>(r.model)].custom
              ? structural_class[static_cast<std::size_t>(r.test)]
              : canonical_class[static_cast<std::size_t>(r.test)];
      const int model_cls = model_class[static_cast<std::size_t>(r.model)];
      const std::uint64_t pair_id =
          static_cast<std::uint64_t>(model_cls) * num_test_classes +
          static_cast<std::uint64_t>(test_cls);
      const auto [it, inserted] = group_of.emplace(pair_id, jobs.size());
      if (!inserted) {
        jobs[it->second].slots.push_back(i);
        ++stats.dedup_hits;
        continue;
      }
      Job job;
      job.model = r.model;
      job.test = r.test;
      job.model_cls = model_cls;
      job.test_cls = test_cls;
      job.slots.push_back(i);
      // One store probe per new group with a column.
      const int col =
          vstore != nullptr ? store_cols[static_cast<std::size_t>(model_cls)]
                            : -1;
      if (col >= 0) {
        const auto hit = vstore->probe_bit(
            test_class_key[static_cast<std::size_t>(test_cls)], col);
        if (hit.has_value()) {
          job.from_store = true;
          job.result = *hit;
          ++stats.store_hits;
        } else {
          ++stats.store_misses;
        }
      }
      if (!job.from_store) pending.push_back(jobs.size());
      jobs.push_back(std::move(job));
    }
  }
  const std::size_t live_checks = grouped ? pending.size() : requests.size();

  // ---- Analyses, now that the store has spoken: built only for the
  // tests some live job evaluates.  With the fingerprints above coming
  // from core::KeyFacts, a dedup- or store-served test never constructs
  // an Analysis at all. ----
  std::vector<int> eval_tests;
  if (grouped) {
    std::vector<char> evaluated(tests.size(), 0);
    for (const auto j : pending) {
      evaluated[static_cast<std::size_t>(jobs[j].test)] = 1;
    }
    for (int t = 0; t < num_tests; ++t) {
      if (evaluated[static_cast<std::size_t>(t)]) eval_tests.push_back(t);
    }
  } else {
    eval_tests = used_tests;
  }
  stats.unique_analyses = eval_tests.size();
  if (!eval_tests.empty()) {
    const auto analyze_one = [&](std::size_t k) {
      const auto t = static_cast<std::size_t>(eval_tests[k]);
      analyses[t] =
          (premade_analyses != nullptr && (*premade_analyses)[t] != nullptr)
              ? std::move((*premade_analyses)[t])
              : std::make_unique<core::Analysis>(tests[t].program());
    };
    if (threads > 1 && eval_tests.size() > 1) {
      pool().parallel_for(eval_tests.size(), analyze_one);
    } else {
      for (std::size_t k = 0; k < eval_tests.size(); ++k) analyze_one(k);
    }
  }

  // ---- Evaluate the deduplicated jobs across ONE pool pass.  A
  // store-miss test's expensive prepared state (rf enumeration +
  // HbProblem skeletons, adopted from the phase-one analyses instead of
  // re-analyzing) is built by whichever worker touches the test first
  // (std::call_once) and is immutable afterward, so worker threads
  // share it without further synchronization and evaluation of other
  // tests proceeds while it builds — no prepare/evaluate barrier.  The
  // job completing a test's last check frees its prepared state (every
  // check of it happens-before the freeing decrement), so peak memory
  // tracks the checks in flight, not the batch size — on dense streamed
  // chunks that is the difference between tens of MB and a working set
  // that never leaves the cache. ----
  std::vector<std::once_flag> prepare_once(tests.size());
  std::vector<std::atomic<std::uint32_t>> checks_left(tests.size());
  if (grouped) {
    for (const auto j : pending) {
      checks_left[static_cast<std::size_t>(jobs[j].test)].fetch_add(
          1, std::memory_order_relaxed);
    }
  } else {
    for (const auto& r : requests) {
      checks_left[static_cast<std::size_t>(r.test)].fetch_add(
          1, std::memory_order_relaxed);
    }
  }
  std::atomic<std::size_t> explicit_count{0};
  std::atomic<std::size_t> sat_count{0};
  std::atomic<std::size_t> formula_evals{0};
  std::atomic<std::size_t> equivalent_evals{0};
  std::atomic<std::size_t> skeletons_used{0};
  std::atomic<std::size_t> skeletons_built{0};
  std::atomic<std::size_t> tests_prepared{0};
  const auto run_check = [&](int model_idx, int test_idx) -> bool {
    const auto st = static_cast<std::size_t>(test_idx);
    std::call_once(prepare_once[st], [&] {
      prepared[st] = std::make_unique<core::PreparedTest>(
          std::move(*analyses[st]), tests[st].outcome());
      analyses[st].reset();
      skeletons_built.fetch_add(prepared[st]->skeletons().size(),
                                std::memory_order_relaxed);
      tests_prepared.fetch_add(1, std::memory_order_relaxed);
    });
    const core::Engine backend =
        resolve_backend(prepared[st]->analysis().num_events());
    if (backend == core::Engine::Explicit) {
      explicit_count.fetch_add(1, std::memory_order_relaxed);
    } else {
      sat_count.fetch_add(1, std::memory_order_relaxed);
    }
    core::PreparedCheckStats cs;
    const bool result = prepared[st]->allowed(
        models[static_cast<std::size_t>(model_idx)], backend, &cs);
    formula_evals.fetch_add(cs.formula_evals, std::memory_order_relaxed);
    equivalent_evals.fetch_add(cs.equivalent_pair_evals,
                               std::memory_order_relaxed);
    skeletons_used.fetch_add(cs.skeletons_used, std::memory_order_relaxed);
    // Last check of this test: release its prepared state (acq_rel —
    // every earlier check's use happens-before this free).
    if (checks_left[st].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      prepared[st].reset();
    }
    return result;
  };
  const auto evaluate = [&](std::size_t k) {
    if (grouped) {
      Job& job = jobs[pending[k]];
      job.result = run_check(job.model, job.test);
    } else {
      results[k] = run_check(requests[k].model, requests[k].test) ? 1 : 0;
    }
  };
  if (threads > 1 && live_checks > 1) {
    pool().parallel_for(live_checks, evaluate);
    stats.threads_used = threads;
  } else {
    for (std::size_t k = 0; k < live_checks; ++k) evaluate(k);
    stats.threads_used = 1;
  }
  stats.checks_run = live_checks;
  stats.explicit_checks = explicit_count.load();
  stats.sat_checks = sat_count.load();

  // Per-test work shared across the batch's checks: each check of a
  // per-cell core::is_allowed loop would have re-enumerated rf maps and
  // rebuilt every skeleton it visited.  (Counters were captured at
  // prepare time — the prepared state itself is already freed test by
  // test.)
  stats.rf_enums_saved = live_checks - tests_prepared.load();
  const std::size_t used = skeletons_used.load();
  const std::size_t built = skeletons_built.load();
  stats.skeletons_reused = used > built ? used - built : 0;
  stats.formula_evals = formula_evals.load();
  const std::size_t equivalent = equivalent_evals.load();
  stats.formula_evals_saved =
      equivalent > stats.formula_evals ? equivalent - stats.formula_evals : 0;

  // ---- Write the evaluated verdicts that have a column back to the
  // store under one exclusive acquisition for the whole batch, then
  // publish results (the direct path wrote them in place). ----
  if (vstore != nullptr) {
    util::ExclusiveLock lock(vstore->mu());
    for (const auto j : pending) {
      const auto& job = jobs[j];
      const int col = store_cols[static_cast<std::size_t>(job.model_cls)];
      if (col >= 0) {
        vstore->set_bit_locked(
            test_class_key[static_cast<std::size_t>(job.test_cls)], col,
            job.result);
      }
    }
  }
  for (const auto& job : jobs) {
    for (const auto slot : job.slots) results[slot] = job.result ? 1 : 0;
  }

  stats.wall_seconds = timer.seconds();
  last_stats_ = stats;
  total_stats_ += stats;
  return results;
}

BitMatrix VerdictEngine::run_matrix(
    const std::vector<core::MemoryModel>& models,
    const std::vector<litmus::LitmusTest>& tests) {
  const int num_models = static_cast<int>(models.size());
  const int num_tests = static_cast<int>(tests.size());
  std::vector<VerdictRequest> requests;
  requests.reserve(static_cast<std::size_t>(num_models) *
                   static_cast<std::size_t>(num_tests));
  // Test-major: a test's |models| checks sit adjacently in the batch,
  // so its prepared state is built and freed back to back (verdicts are
  // order-independent; only peak memory changes).
  for (int t = 0; t < num_tests; ++t) {
    for (int m = 0; m < num_models; ++m) requests.push_back({m, t});
  }
  const auto verdicts = run_batch(models, tests, requests);

  BitMatrix matrix(num_models, num_tests);
  std::size_t i = 0;
  for (int t = 0; t < num_tests; ++t) {
    for (int m = 0; m < num_models; ++m, ++i) {
      if (verdicts[i]) matrix.set(m, t, true);
    }
  }
  return matrix;
}

StreamStageTimes& StreamStageTimes::operator+=(const StreamStageTimes& other) {
  produce += other.produce;
  keys += other.keys;
  dedup += other.dedup;
  verdict += other.verdict;
  return *this;
}

std::string StreamStageTimes::to_string() const {
  std::ostringstream os;
  os << "produce=" << produce << "s keys=" << keys << "s dedup=" << dedup
     << "s verdict=" << verdict << "s";
  return os.str();
}

double StreamStats::dedup_rate() const {
  return tests_streamed == 0
             ? 0.0
             : static_cast<double>(duplicate_tests) /
                   static_cast<double>(tests_streamed);
}

std::string StreamStats::to_string() const {
  std::ostringstream os;
  os << "chunks=" << chunks << " streamed=" << tests_streamed
     << " novel=" << novel_tests << " duplicates=" << duplicate_tests
     << " (dedup " << static_cast<int>(100.0 * dedup_rate() + 0.5)
     << "%) wall=" << wall_seconds << "s stages[" << stages.to_string()
     << (overlapped ? " (produce overlapped)" : "")
     << "] shards=" << dedup_shards << " [" << engine.to_string() << "]";
  return os.str();
}

StreamStats VerdictEngine::run_stream(
    const std::vector<core::MemoryModel>& models, TestSource& source,
    const StreamChunkSink& on_chunk, const StreamOptions& stream_options) {
  util::Timer timer;
  StreamStats total;

  // Canonical keys are only sound for models built from the built-in
  // predicates; one custom-predicate model (or a caller that re-uses
  // the novel tests against custom models) forces structural keys for
  // the whole stream filter.
  bool structural_filter = stream_options.force_structural_keys;
  for (const auto& model : models) {
    structural_filter = structural_filter || model.formula().has_custom();
  }

  const int num_models = static_cast<int>(models.size());
  const int threads = effective_threads();
  const bool dedup = stream_options.dedup_across_chunks;

  // ---- Stream-level verdict store: a novel test whose full verdict
  // row is on disk skips evaluation; evaluated rows are written back.
  // Requires canonical dedup keys (the store holds canonical
  // fingerprints only) and a store column for every swept model. ----
  store::VerdictStore* const vstore = stream_options.verdict_store;
  std::vector<int> store_cols;
  bool stream_store = vstore != nullptr && dedup && !structural_filter;
  if (stream_store) {
    store_cols.reserve(models.size());
    for (const auto& model : models) {
      const int col = vstore->column_of(store::model_store_key(model));
      if (col < 0) {
        stream_store = false;
        store_cols.clear();
        break;
      }
      store_cols.push_back(col);
    }
  }

  // ---- Pipeline state.  The dedup set stores 128-bit key hashes in
  // mutex-striped shards; overlap runs the source in a producer thread
  // (ChunkPrefetcher) so materialization hides behind evaluation.  All
  // per-chunk buffers are hoisted and reused across chunks. ----
  std::optional<ShardedKeySet> seen;
  if (dedup) seen.emplace(stream_options.dedup_shards);
  total.dedup_shards = seen ? seen->num_shards() : 0;
  // Audit mode only: fingerprint -> legacy key string and back, proving
  // fingerprint equality coincides with legacy key equality over the
  // stream (see StreamOptions::audit_dedup_keys).
  std::unordered_map<util::Key128, std::string, util::Key128Hash> audit;
  std::unordered_map<std::string, util::Key128> audit_reverse;

  // ---- Checkpoint/resume.  Restoring happens before the prefetcher
  // exists, directly on the raw source; both restore steps validate
  // before mutating, so a failed resume degrades to streaming from
  // scratch rather than diverging. ----
  const store::StreamPersistence* const persist =
      vstore != nullptr && stream_options.persistence != nullptr &&
              !stream_options.persistence->path.empty()
          ? stream_options.persistence
          : nullptr;
  int seals = 0;
  int chunks_since_seal = 0;
  if (persist != nullptr && persist->resume) {
    // checkpoint() hands out a copy (the stored one lives under the
    // store's lock), so the restore steps below work on a stable value.
    const std::optional<store::StreamCheckpoint> ck = vstore->checkpoint();
    if (ck.has_value()) {
      const bool sink_ok =
          !persist->restore_sink || persist->restore_sink(ck->sink_state);
      if (sink_ok && source.restore_cursor(ck->source_cursor)) {
        if (seen) seen->seed(ck->seen_keys);
        total.chunks = static_cast<std::size_t>(ck->chunks);
        total.tests_streamed = static_cast<std::size_t>(ck->tests_streamed);
        total.novel_tests = static_cast<std::size_t>(ck->novel_tests);
        total.duplicate_tests = static_cast<std::size_t>(ck->duplicate_tests);
      } else {
        // Unusable checkpoint (source shape changed, or a sink that
        // cannot adopt the state): drop it and recompute from scratch.
        vstore->clear_checkpoint();
      }
    }
  }

  // The prefetcher runs on its own thread, not a pool worker, so
  // overlap engages even for a 1-thread engine (production still hides
  // behind consumption whenever a spare core exists).
  const bool overlap = stream_options.overlap_production;
  total.overlapped = overlap;
  std::optional<ChunkPrefetcher> prefetcher;
  // Cursor capture exists only for checkpoint seals; without
  // persistence the producer thread skips the per-chunk snapshot.
  if (overlap) prefetcher.emplace(source, 1, persist != nullptr);
  TestSource& input = overlap ? static_cast<TestSource&>(*prefetcher) : source;

  std::vector<litmus::LitmusTest> chunk;
  std::vector<litmus::LitmusTest> novel;
  std::vector<std::unique_ptr<core::Analysis>> analyses;
  std::vector<util::Key128> key_hashes;
  std::vector<char> dup_of_past;
  std::vector<std::string> full_keys;  // audit mode only
  std::vector<int> novel_idx;
  std::vector<std::size_t> eval_pos;  // novel positions the store missed
  std::vector<std::uint64_t> store_row;

  bool more = true;
  while (more) {
    chunk.clear();
    util::Timer produce_timer;
    more = input.next_chunk(chunk);
    const double produce_seconds =
        overlap ? prefetcher->last_produce_seconds() : produce_timer.seconds();
    if (chunk.empty()) {
      total.stages.produce += produce_seconds;
      continue;
    }

    StreamChunkStats cs;
    cs.index = total.chunks;
    cs.streamed = chunk.size();
    cs.stages.produce = produce_seconds;

    // ---- Cross-chunk dedup, two phases.
    //
    // Key phase (parallel): fingerprint computation fans out across the
    // pool in contiguous ranges, each worker reusing one KeyScratch.
    // litmus::canonical_fingerprint hashes the canonicalized event walk
    // directly — no Analysis, no key string, no per-test allocation —
    // and the 128-bit digest is claimed in the sharded set as it goes.
    // Only audit mode still builds the Analysis and the legacy string
    // key per test (handing novel analyses to the batch below).
    //
    // Resolve phase (serial, chunk order): a test is novel iff its key
    // is new to the stream and it holds the chunk's minimum index for
    // that key — exactly what serial insertion in chunk order would
    // decide, making results independent of thread count. ----
    const std::size_t n = chunk.size();
    analyses.clear();
    analyses.resize(n);
    novel_idx.clear();
    if (dedup) {
      util::Timer key_timer;
      key_hashes.resize(n);
      dup_of_past.assign(n, 0);
      if (stream_options.audit_dedup_keys) full_keys.assign(n, {});
      seen->begin_chunk();
      const std::size_t tasks =
          threads > 1 && n > 1
              ? (n < static_cast<std::size_t>(threads) * 4
                     ? n
                     : static_cast<std::size_t>(threads) * 4)
              : 1;
      const auto key_range = [&](std::size_t r) {
        litmus::KeyScratch scratch;
        const std::size_t begin = n * r / tasks;
        const std::size_t end = n * (r + 1) / tasks;
        for (std::size_t i = begin; i < end; ++i) {
          key_hashes[i] =
              structural_filter
                  ? litmus::structural_fingerprint(chunk[i])
                  : litmus::canonical_fingerprint(chunk[i], scratch);
          if (stream_options.audit_dedup_keys) {
            // The legacy string key for the cross-check; the canonical
            // flavor needs the Analysis the fingerprint skipped, which
            // is handed to the batch below so novel tests are not
            // re-analyzed.
            if (structural_filter) {
              litmus::structural_key(chunk[i], scratch.best);
              full_keys[i] = scratch.best;
            } else {
              analyses[i] =
                  std::make_unique<core::Analysis>(chunk[i].program());
              full_keys[i] = litmus::canonical_key(*analyses[i],
                                                   chunk[i].outcome(), scratch);
            }
          }
          dup_of_past[i] =
              seen->claim(key_hashes[i], static_cast<std::uint32_t>(i)) ? 1 : 0;
          // A settled duplicate's audit analysis is dead weight: free it
          // here in the worker, not after the whole chunk is keyed.
          if (dup_of_past[i] != 0) analyses[i].reset();
        }
      };
      if (tasks > 1) {
        pool().parallel_for(tasks, key_range);
      } else {
        key_range(0);
      }
      cs.stages.keys = key_timer.seconds();

      util::Timer dedup_timer;
      for (std::size_t i = 0; i < n; ++i) {
        const bool duplicate =
            dup_of_past[i] != 0 ||
            seen->owner(key_hashes[i]) != static_cast<std::uint32_t>(i);
        if (stream_options.audit_dedup_keys) {
          // Both directions: a fingerprint maps to exactly one legacy
          // key (no collision merges distinct classes) and a legacy key
          // maps to exactly one fingerprint (no class is split).
          const auto it = audit.find(key_hashes[i]);
          if (it == audit.end()) {
            MCMC_CHECK_MSG(
                audit_reverse.emplace(full_keys[i], key_hashes[i]).second,
                "canonical fingerprint split a key class: equal legacy "
                "keys produced distinct fingerprints");
            audit.emplace(key_hashes[i], std::move(full_keys[i]));
          } else {
            MCMC_CHECK_MSG(it->second == full_keys[i],
                           "128-bit fingerprint collision: two distinct "
                           "canonical keys share a fingerprint");
          }
        }
        if (duplicate) {
          analyses[i].reset();
          ++cs.duplicates;
        } else {
          novel_idx.push_back(static_cast<int>(i));
        }
      }
      cs.stages.dedup = dedup_timer.seconds();
    } else {
      novel_idx.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        novel_idx[i] = static_cast<int>(i);
      }
    }
    cs.novel = novel_idx.size();

    util::Timer verdict_timer;

    // ---- Store probe: novel tests whose full verdict row is on disk
    // are delivered straight from it; only the misses evaluate. ----
    BitMatrix verdicts(num_models, static_cast<int>(novel_idx.size()));
    eval_pos.clear();
    if (stream_store) {
      for (std::size_t k = 0; k < novel_idx.size(); ++k) {
        const auto t = static_cast<std::size_t>(novel_idx[k]);
        if (vstore->probe_row(key_hashes[t], store_cols, store_row)) {
          for (int m = 0; m < num_models; ++m) {
            if ((store_row[static_cast<std::size_t>(m) / 64] >>
                 (static_cast<std::size_t>(m) % 64)) &
                1ULL) {
              verdicts.set(m, static_cast<int>(k), true);
            }
          }
        } else {
          eval_pos.push_back(k);
        }
      }
    } else {
      eval_pos.resize(novel_idx.size());
      for (std::size_t k = 0; k < novel_idx.size(); ++k) eval_pos[k] = k;
    }

    // ---- Evaluate the chunk's store-missed novel tests in place (no
    // moves yet: the analyses point into `chunk`'s programs). ----
    if (!eval_pos.empty()) {
      std::vector<VerdictRequest> requests;
      requests.reserve(static_cast<std::size_t>(num_models) * eval_pos.size());
      // Test-major order: a test's |models| checks are adjacent, so its
      // prepared state is freed almost as soon as it is built.
      for (const std::size_t k : eval_pos) {
        const int t = novel_idx[k];
        for (int m = 0; m < num_models; ++m) requests.push_back({m, t});
      }
      // When the stream filter deduped by canonical fingerprints, the
      // novel tests are canonically unique: no within-batch group could
      // ever merge, so skip the grouping layer instead of re-deriving
      // every fingerprint it would intern.  (A structural filter leaves
      // canonical within-batch sharing worthwhile.)
      const bool group_batch =
          !stream_options.dedup_across_chunks || structural_filter;
      const auto flat =
          run_batch_impl(models, chunk, requests, group_batch, &analyses);
      std::size_t slot = 0;
      for (const std::size_t k : eval_pos) {
        for (int m = 0; m < num_models; ++m, ++slot) {
          if (flat[slot]) verdicts.set(m, static_cast<int>(k), true);
        }
      }
      cs.engine = last_stats_;
      // Write the evaluated rows back so the next cold run (or the next
      // process) serves them from disk — one exclusive acquisition for
      // the whole chunk, not per bit.
      if (stream_store) {
        util::ExclusiveLock lock(vstore->mu());
        for (const std::size_t k : eval_pos) {
          const auto t = static_cast<std::size_t>(novel_idx[k]);
          for (int m = 0; m < num_models; ++m) {
            vstore->set_bit_locked(key_hashes[t],
                                   store_cols[static_cast<std::size_t>(m)],
                                   verdicts.get(m, static_cast<int>(k)));
          }
        }
      }
    }
    if (stream_store) {
      const std::size_t served = novel_idx.size() - eval_pos.size();
      cs.engine.store_hits += served * static_cast<std::size_t>(num_models);
      cs.engine.store_misses +=
          eval_pos.size() * static_cast<std::size_t>(num_models);
    }

    // ---- Deliver: the novel tests move out of the chunk only after
    // the batch (and every Analysis into them) is done. ----
    novel.clear();
    for (const int t : novel_idx) {
      novel.push_back(std::move(chunk[static_cast<std::size_t>(t)]));
    }
    cs.stages.verdict = verdict_timer.seconds();

    ++total.chunks;
    total.tests_streamed += cs.streamed;
    total.novel_tests += cs.novel;
    total.duplicate_tests += cs.duplicates;
    total.stages += cs.stages;
    total.engine += cs.engine;
    if (on_chunk) on_chunk(novel, verdicts, cs);

    // ---- Seal: every K chunks, snapshot the whole resumable state
    // (cursor, dedup set, counters, sink) into the store and commit it
    // atomically.  A failed save (full disk, failing fsync) is not
    // fatal — the previous complete file stands and sealing retries
    // after the next chunk. ----
    if (persist != nullptr && more &&
        ++chunks_since_seal >= persist->checkpoint_every_chunks &&
        persist->checkpoint_every_chunks > 0) {
      store::StreamCheckpoint ck;
      if (input.snapshot_cursor(ck.source_cursor)) {
        ck.chunks = total.chunks;
        ck.tests_streamed = total.tests_streamed;
        ck.novel_tests = total.novel_tests;
        ck.duplicate_tests = total.duplicate_tests;
        if (seen) {
          seen->export_keys(ck.seen_keys);
          // Flat-table slot order depends on claim interleaving; sort
          // so equal dedup sets checkpoint identically.
          std::sort(ck.seen_keys.begin(), ck.seen_keys.end());
        }
        if (persist->save_sink) persist->save_sink(ck.sink_state);
        vstore->set_checkpoint(std::move(ck));
        if (vstore->save(persist->path, persist->fs)) {
          chunks_since_seal = 0;
          ++seals;
          if (persist->kill_after_seals >= 0 &&
              seals >= persist->kill_after_seals) {
            // The file is already committed: on-disk state is exactly a
            // SIGKILL's right after the rename.
            throw store::StreamInterrupted(
                "stream killed by test hook after seal " +
                std::to_string(seals));
          }
        }
      }
    }
  }

  // ---- Completion: the checkpoint has served its purpose; commit the
  // warm store without one so the next run starts clean. ----
  if (persist != nullptr) {
    vstore->clear_checkpoint();
    (void)vstore->save(persist->path, persist->fs);
  }
  total.wall_seconds = timer.seconds();
  return total;
}

bool VerdictEngine::allowed(const core::MemoryModel& model,
                            const litmus::LitmusTest& test) {
  return run_batch({model}, {test}, {VerdictRequest{0, 0}})[0] != 0;
}

}  // namespace mcmc::engine
