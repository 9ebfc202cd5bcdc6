#include "engine/verdict_engine.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

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

namespace {

/// The one class-key rule of both entry points.  Canonical keys are
/// only sound for models built from the built-in predicates; one
/// custom-predicate model, whose semantics may observe raw thread and
/// location identity, forces structural keys for the whole batch.
bool needs_structural_keys(const std::vector<core::MemoryModel>& models) {
  return std::any_of(models.begin(), models.end(),
                     [](const core::MemoryModel& model) {
                       return model.formula().has_custom();
                     });
}

util::Key128 class_key(const litmus::LitmusTest& test, bool structural,
                       litmus::KeyScratch& scratch) {
  return structural ? litmus::structural_fingerprint(test)
                    : litmus::canonical_fingerprint(test, scratch);
}

/// The store column of every model, in model order.  False when some
/// model has none (custom predicates, or a model outside the store's
/// zoo): a row probe needs the whole row.
bool store_columns(const store::VerdictStore& vstore,
                   const std::vector<core::MemoryModel>& models,
                   std::vector<int>& cols) {
  cols.clear();
  for (const auto& model : models) {
    const int col = vstore.column_of(store::model_store_key(model));
    if (col < 0) {
      cols.clear();
      return false;
    }
    cols.push_back(col);
  }
  return true;
}

}  // namespace

EngineStats& EngineStats::operator+=(const EngineStats& other) {
  cells += other.cells;
  checks_run += other.checks_run;
  dedup_hits += other.dedup_hits;
  store_hits += other.store_hits;
  store_misses += other.store_misses;
  explicit_checks += other.explicit_checks;
  sat_checks += other.sat_checks;
  unique_analyses += other.unique_analyses;
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
     << " analyses=" << unique_analyses << " threads=" << threads_used
     << " wall=" << wall_seconds << "s";
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

void VerdictEngine::for_ranges(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& range) {
  const int threads = effective_threads();
  const std::size_t tasks =
      threads > 1 && n > 1
          ? (n < static_cast<std::size_t>(threads) * 4
                 ? n
                 : static_cast<std::size_t>(threads) * 4)
          : 1;
  if (tasks > 1) {
    pool().parallel_for(tasks, [&](std::size_t r) {
      range(n * r / tasks, n * (r + 1) / tasks);
    });
  } else {
    range(0, n);
  }
}

void VerdictEngine::decide_rows(const std::vector<core::MemoryModel>& models,
                                const std::vector<litmus::LitmusTest>& tests,
                                const std::vector<int>& rows,
                                const std::vector<util::Key128>& keys,
                                store::VerdictStore* vstore,
                                const std::vector<int>& store_cols,
                                BitMatrix& verdicts, EngineStats& stats) {
  const std::size_t num_models = models.size();

  // ---- Store probe: one full-row probe per class; a class whose row
  // is on disk is delivered straight from it, only the misses
  // evaluate. ----
  std::vector<std::size_t> eval;  // positions in `rows` the store missed
  if (vstore != nullptr) {
    std::vector<std::uint64_t> store_row;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const auto t = static_cast<std::size_t>(rows[k]);
      if (!vstore->probe_row(keys[t], store_cols, store_row)) {
        eval.push_back(k);
        continue;
      }
      for (std::size_t m = 0; m < num_models; ++m) {
        if ((store_row[m / 64] >> (m % 64)) & 1ULL) {
          verdicts.set(static_cast<int>(m), static_cast<int>(k), true);
        }
      }
    }
    stats.store_hits += (rows.size() - eval.size()) * num_models;
    stats.store_misses += eval.size() * num_models;
  } else {
    eval.resize(rows.size());
    for (std::size_t k = 0; k < rows.size(); ++k) eval[k] = k;
  }

  // ---- Evaluate the misses, test-major, across ONE pool pass.  A
  // test's prepared state (Analysis, rf enumeration and HbProblem
  // skeletons) and its backend are set by whichever worker touches the
  // test first (std::call_once) and are immutable afterward, so worker
  // threads share them without further synchronization and evaluation
  // of other tests proceeds while one builds — no prepare/evaluate
  // barrier.  The check completing a test's last model frees its
  // prepared state (every check of it happens-before the freeing
  // decrement), so peak memory tracks the checks in flight, not the
  // batch size — on dense streamed chunks that is the difference
  // between tens of MB and a working set that never leaves the cache.
  // That decrement is a check's only atomic read-modify-write. ----
  const std::size_t checks = eval.size() * num_models;
  std::vector<std::unique_ptr<core::PreparedTest>> prepared(eval.size());
  std::vector<core::Engine> backends(eval.size());
  std::vector<std::once_flag> prepare_once(eval.size());
  std::vector<std::atomic<std::size_t>> checks_left(eval.size());
  for (auto& left : checks_left) left.store(num_models);
  std::vector<char> bits(checks, 0);
  const auto check = [&](std::size_t c) {
    const std::size_t e = c / num_models;
    std::call_once(prepare_once[e], [&] {
      const auto& test = tests[static_cast<std::size_t>(rows[eval[e]])];
      prepared[e] =
          std::make_unique<core::PreparedTest>(test.program(), test.outcome());
      backends[e] = resolve_backend(prepared[e]->analysis().num_events());
    });
    bits[c] = prepared[e]->allowed(models[c % num_models], backends[e]) ? 1 : 0;
    // Last check of this test: release its prepared state (acq_rel —
    // every earlier check's use happens-before this free).
    if (checks_left[e].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      prepared[e].reset();
    }
  };
  const int threads = effective_threads();
  if (threads > 1 && checks > 1) {
    pool().parallel_for(checks, check);
    stats.threads_used = threads;
  } else {
    for (std::size_t c = 0; c < checks; ++c) check(c);
    stats.threads_used = 1;
  }
  for (std::size_t c = 0; c < checks; ++c) {
    if (bits[c] != 0) {
      verdicts.set(static_cast<int>(c % num_models),
                   static_cast<int>(eval[c / num_models]), true);
    }
  }

  // The backend depends on the test's event count only, so an
  // evaluated test runs every model on one backend.
  const std::size_t evaluated = checks == 0 ? 0 : eval.size();
  const auto sat_tests = static_cast<std::size_t>(
      std::count(backends.begin(), backends.end(), core::Engine::Sat));
  stats.checks_run += checks;
  stats.unique_analyses += evaluated;
  stats.sat_checks += sat_tests * num_models;
  stats.explicit_checks += checks - sat_tests * num_models;

  // ---- Write the evaluated rows back so the next batch (or the next
  // process) serves them from the store — one exclusive acquisition
  // for all of them, not one per bit. ----
  if (vstore != nullptr && checks > 0) {
    util::ExclusiveLock lock(vstore->mu());
    for (std::size_t c = 0; c < checks; ++c) {
      vstore->set_bit_locked(
          keys[static_cast<std::size_t>(rows[eval[c / num_models]])],
          store_cols[c % num_models], bits[c] != 0);
    }
  }
}

BitMatrix VerdictEngine::run_matrix(
    const std::vector<core::MemoryModel>& models,
    const std::vector<litmus::LitmusTest>& tests) {
  util::Timer timer;
  const std::size_t num_tests = tests.size();
  EngineStats stats;
  stats.cells = models.size() * num_tests;

  // ---- One key per test, by the rule run_stream shares; none when
  // grouping is off and no store waits for them.  128-bit fingerprints
  // (litmus::canonical_fingerprint) are all the grouping needs: no
  // Analysis and no key string is built here. ----
  const bool structural = needs_structural_keys(models);
  const bool keyed = options_.cache_enabled || store_ != nullptr;
  std::vector<util::Key128> keys(keyed ? num_tests : 0);
  if (keyed) {
    for_ranges(num_tests, [&](std::size_t begin, std::size_t end) {
      litmus::KeyScratch scratch;
      for (std::size_t t = begin; t < end; ++t) {
        keys[t] = class_key(tests[t], structural, scratch);
      }
    });
  }

  // ---- Group tests into classes; the first test of each class
  // decides the class's row. ----
  std::vector<int> class_of(keyed ? num_tests : 0);
  std::vector<int> reps;
  if (keyed) {
    std::unordered_map<util::Key128, int, util::Key128Hash> class_ids;
    class_ids.reserve(num_tests);
    for (std::size_t t = 0; t < num_tests; ++t) {
      const auto [it, inserted] =
          class_ids.emplace(keys[t], static_cast<int>(reps.size()));
      if (inserted) reps.push_back(static_cast<int>(t));
      class_of[t] = it->second;
    }
  } else {
    reps.resize(num_tests);
    std::iota(reps.begin(), reps.end(), 0);
  }
  stats.dedup_hits = (num_tests - reps.size()) * models.size();

  // The store holds canonical rows only, for models with a column.
  store::VerdictStore* vstore = structural ? nullptr : store_;
  std::vector<int> store_cols;
  if (vstore != nullptr && !store_columns(*vstore, models, store_cols)) {
    vstore = nullptr;
  }
  const int num_models = static_cast<int>(models.size());
  BitMatrix class_rows(num_models, static_cast<int>(reps.size()));
  decide_rows(models, tests, reps, keys, vstore, store_cols, class_rows,
              stats);

  BitMatrix matrix;
  if (reps.size() == num_tests) {
    matrix = std::move(class_rows);  // every test is its own class
  } else {
    matrix = BitMatrix(num_models, static_cast<int>(num_tests));
    for (std::size_t t = 0; t < num_tests; ++t) {
      for (int m = 0; m < num_models; ++m) {
        if (class_rows.get(m, class_of[t])) {
          matrix.set(m, static_cast<int>(t), true);
        }
      }
    }
  }
  stats.wall_seconds = timer.seconds();
  last_stats_ = stats;
  total_stats_ += stats;
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
     << "] [" << engine.to_string() << "]";
  return os.str();
}

StreamStats VerdictEngine::run_stream(
    const std::vector<core::MemoryModel>& models, TestSource& source,
    const StreamChunkSink& on_chunk, const StreamOptions& stream_options) {
  util::Timer timer;
  StreamStats total;

  // The run_matrix key rule, plus callers that re-use the novel tests
  // against custom models (force_structural_keys).
  const bool structural_filter =
      stream_options.force_structural_keys || needs_structural_keys(models);

  // ---- Stream-level verdict store: a novel test whose full verdict
  // row is on disk skips evaluation; evaluated rows are written back.
  // Requires canonical dedup keys (the store holds canonical
  // fingerprints only) and a store column for every swept model. ----
  store::VerdictStore* const vstore = stream_options.verdict_store;
  std::vector<int> store_cols;
  const bool stream_store = vstore != nullptr && !structural_filter &&
                            store_columns(*vstore, models, store_cols);

  // ---- Pipeline state.  The dedup set stores 128-bit key hashes in
  // mutex-striped shards; a producer thread (ChunkPrefetcher) runs the
  // source so materialization hides behind evaluation.  All per-chunk
  // buffers are hoisted and reused across chunks. ----
  ShardedKeySet seen;

  // ---- Checkpoint/resume.  Restoring happens before the prefetcher
  // exists, directly on the raw source.  Both restore steps validate
  // before mutating, and the source goes first: a sink that then
  // rejects gets the source rewound to where it started, so either
  // rejection leaves source and sink untouched and the run streams
  // from scratch rather than diverging. ----
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
      std::vector<std::uint64_t> start;
      bool resumed = source.snapshot_cursor(start) &&
                     source.restore_cursor(ck->source_cursor);
      if (resumed && persist->restore_sink &&
          !persist->restore_sink(ck->sink_state)) {
        MCMC_CHECK_MSG(source.restore_cursor(start),
                       "source rejected its own start cursor");
        resumed = false;
      }
      if (resumed) {
        seen.seed(ck->seen_keys);
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
  // production hides behind consumption even for a 1-thread engine
  // whenever a spare core exists.  Cursor capture exists only for
  // checkpoint seals; without persistence the producer thread skips
  // the per-chunk snapshot.
  ChunkPrefetcher input(source, persist != nullptr);

  std::vector<litmus::LitmusTest> chunk;
  std::vector<litmus::LitmusTest> novel;
  std::vector<util::Key128> key_hashes;
  std::vector<char> dup_of_past;
  std::vector<int> novel_idx;

  bool more = true;
  while (more) {
    chunk.clear();
    more = input.next_chunk(chunk);
    const double produce_seconds = input.last_produce_seconds();
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
    //
    // Resolve phase (serial, chunk order): a test is novel iff its key
    // is new to the stream and it holds the chunk's minimum index for
    // that key — exactly what serial insertion in chunk order would
    // decide, making results independent of thread count. ----
    const std::size_t n = chunk.size();
    novel_idx.clear();
    util::Timer key_timer;
    key_hashes.resize(n);
    dup_of_past.assign(n, 0);
    seen.begin_chunk();
    for_ranges(n, [&](std::size_t begin, std::size_t end) {
      litmus::KeyScratch scratch;
      for (std::size_t i = begin; i < end; ++i) {
        key_hashes[i] = class_key(chunk[i], structural_filter, scratch);
        dup_of_past[i] =
            seen.claim(key_hashes[i], static_cast<std::uint32_t>(i)) ? 1 : 0;
      }
    });
    cs.stages.keys = key_timer.seconds();

    util::Timer dedup_timer;
    for (std::size_t i = 0; i < n; ++i) {
      const bool duplicate =
          dup_of_past[i] != 0 ||
          seen.owner(key_hashes[i]) != static_cast<std::uint32_t>(i);
      if (duplicate) {
        ++cs.duplicates;
      } else {
        novel_idx.push_back(static_cast<int>(i));
      }
    }
    cs.stages.dedup = dedup_timer.seconds();
    cs.novel = novel_idx.size();

    // ---- Decide the novel tests' rows in place (no moves yet: the
    // prepared tests point into `chunk`'s programs).  They are unique
    // classes already, so each is its own row. ----
    util::Timer verdict_timer;
    BitMatrix verdicts(static_cast<int>(models.size()),
                       static_cast<int>(novel_idx.size()));
    cs.engine.cells = novel_idx.size() * models.size();
    decide_rows(models, chunk, novel_idx, key_hashes,
                stream_store ? vstore : nullptr, store_cols, verdicts,
                cs.engine);
    cs.engine.wall_seconds = verdict_timer.seconds();
    last_stats_ = cs.engine;
    total_stats_ += cs.engine;

    // ---- Deliver: the novel tests move out of the chunk only after
    // the rows (and every prepared test into them) are done. ----
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
        seen.export_keys(ck.seen_keys);
        // Flat-table slot order depends on claim interleaving; sort so
        // equal dedup sets checkpoint identically.
        std::sort(ck.seen_keys.begin(), ck.seen_keys.end());
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

}  // namespace mcmc::engine
