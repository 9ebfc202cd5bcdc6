// The unified batched verdict pipeline.
//
// Every result in the paper reduces to "is this outcome allowed under
// this model?" asked thousands of times.  VerdictEngine owns that loop
// for the whole repository.  It has two entry points: run_matrix for a
// materialized models x tests product, and run_stream for a chunked
// TestSource.  Both reduce to one unit of evaluation, the verdict row
// of one test class under every model, with the engine handling
//
//   * one class-key rule: litmus::canonical_fingerprint (128-bit,
//     allocation-free), so symmetric tests (thread-permuted,
//     location-renamed) share one row — or structural fingerprints for
//     the whole batch when any model has custom predicates, whose
//     semantics may observe raw thread/location identity.  The
//     fingerprints are audited against the legacy litmus::canonical_key
//     strings by the tests (tests/key_audit.h), not by the engine,
//   * cross-batch reuse through a store::VerdictStore holding one row
//     per canonical class: probed once per class with probe_row and
//     written back under one exclusive lock (see set_store; a file-less
//     VerdictStore(meta) is an in-memory cache),
//   * the prepared check path (core::PreparedTest): per-test analysis,
//     rf enumeration and HbProblem skeletons built once per evaluated
//     class and shared across every model and worker thread, with the
//     model's must-not-reorder formula compiled into per-event bitmask
//     rows per cell instead of re-walked per event pair per rf map; the
//     state is freed after the class's last check, and dedup- and
//     store-served tests never pay for one,
//   * backend selection per test: the explicit-closure engine, the SAT
//     engine, or adaptive (explicit for small instances, SAT beyond the
//     explicit engine's 64-event bitmask limit),
//   * a work-stealing std::thread pool parallelizing across cells, and
//   * per-batch statistics (checks run, dedup and store hits, backend
//     split, wall time).
//
// explore::AdmissibilityMatrix, model fingerprinting, the suite filter,
// litmusd, the examples, and the bench sweeps all route through this
// engine.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/checker.h"
#include "core/model.h"
#include "engine/bit_matrix.h"
#include "engine/test_stream.h"
#include "engine/thread_pool.h"
#include "litmus/test.h"
#include "util/hash128.h"

namespace mcmc::store {
class VerdictStore;
struct StreamPersistence;
}  // namespace mcmc::store

namespace mcmc::engine {

/// Largest test the explicit engine decides: its transitive-closure
/// state is one 64-bit reachability row per event.
inline constexpr int kExplicitMaxEvents = 64;

/// Which admissibility decision procedure evaluates a cell.
enum class Backend {
  Explicit,  ///< core::Engine::Explicit for every cell (<= 64 events)
  Sat,       ///< core::Engine::Sat for every cell
  Adaptive,  ///< Explicit up to kExplicitMaxEvents events, Sat above
};

[[nodiscard]] std::string to_string(Backend backend);

/// Parses "explicit" / "sat" / "adaptive" (as used by the bench flags).
[[nodiscard]] bool parse_backend(const std::string& text, Backend& out);

struct EngineOptions {
  Backend backend = Backend::Adaptive;
  /// Total evaluation threads, including the caller; 0 means
  /// std::thread::hardware_concurrency().
  int num_threads = 0;
  /// Group run_matrix's tests by class; false decides every test
  /// directly.  An attached store (set_store) groups regardless.
  bool cache_enabled = true;
};

/// Per-batch accounting (also accumulated across an engine's lifetime).
struct EngineStats {
  std::size_t cells = 0;           ///< verdicts requested
  std::size_t checks_run = 0;      ///< prepared checks evaluated
  std::size_t dedup_hits = 0;      ///< shared within the batch via keys
  std::size_t store_hits = 0;      ///< served by the attached verdict store
  std::size_t store_misses = 0;    ///< store probes that found nothing
  std::size_t explicit_checks = 0; ///< checks decided by the explicit engine
  std::size_t sat_checks = 0;      ///< checks decided by the SAT engine
  std::size_t unique_analyses = 0; ///< Analysis constructions this batch
                                   ///  (tests reaching evaluation only:
                                   ///  dedup/store hits build none)

  int threads_used = 1;
  double wall_seconds = 0.0;

  EngineStats& operator+=(const EngineStats& other);
  /// One-line rendering for the bench harnesses.
  [[nodiscard]] std::string to_string() const;
};

/// Options for a streaming run (see VerdictEngine::run_stream).
struct StreamOptions {
  /// Force structural dedup keys even when every streamed model is
  /// custom-free.  Callers that reuse the delivered verdicts beyond the
  /// streamed models (e.g. the extremes-prefiltered Theorem harness,
  /// which sweeps a different model set over the novel tests) must set
  /// this when any of *those* models carries custom predicates —
  /// canonical sharing is unsound for them.
  bool force_structural_keys = false;
  /// Persistent verdict store consulted per novel test (caller-owned,
  /// may be null).  When every streamed model has a store column and
  /// the stream dedups by canonical fingerprints, a test whose full
  /// verdict row is present skips evaluation entirely and evaluated
  /// rows are written back — this is what makes a warm rerun serve
  /// from disk.  Ignored under structural keys (the store holds
  /// canonical fingerprints only).  The engine's own set_store store
  /// serves run_matrix only.
  store::VerdictStore* verdict_store = nullptr;
  /// Chunk-granular checkpoint/resume of the stream into
  /// `verdict_store` (null = no checkpointing; requires
  /// `verdict_store`).  See store::StreamPersistence.
  const store::StreamPersistence* persistence = nullptr;
};

/// Per-stage wall time of the streaming pipeline.  `produce` is time
/// spent inside the source's next_chunk on the prefetcher thread — it
/// runs concurrently with the other stages, so it is overlap, not
/// critical path.  `keys` is the parallel fingerprint/claim phase,
/// `dedup` the serial chunk-order ownership resolution, `verdict` the
/// batched evaluation plus delivery.
struct StreamStageTimes {
  double produce = 0.0;
  double keys = 0.0;
  double dedup = 0.0;
  double verdict = 0.0;

  StreamStageTimes& operator+=(const StreamStageTimes& other);
  [[nodiscard]] std::string to_string() const;
};

/// Accounting for one streamed chunk.
struct StreamChunkStats {
  std::size_t index = 0;      ///< 0-based chunk number
  std::size_t streamed = 0;   ///< tests pulled from the source
  std::size_t novel = 0;      ///< first-of-their-class tests evaluated
  std::size_t duplicates = 0; ///< cross-chunk dedup hits
  StreamStageTimes stages;    ///< this chunk's per-stage wall breakdown
  EngineStats engine;         ///< engine stats of this chunk's batch
};

/// Accounting for a whole streamed run.
struct StreamStats {
  std::size_t chunks = 0;
  std::size_t tests_streamed = 0;
  std::size_t novel_tests = 0;
  std::size_t duplicate_tests = 0;  ///< cross-chunk dedup hits
  StreamStageTimes stages;          ///< accumulated per-stage breakdown
  EngineStats engine;               ///< accumulated over chunk batches
  double wall_seconds = 0.0;

  /// Fraction of streamed tests served by the cross-chunk dedup.
  [[nodiscard]] double dedup_rate() const;
  /// Keys-stage cost per streamed test in nanoseconds — the
  /// fingerprint path's scaling number.  bench_exhaustive reports it
  /// per space so the dep-extended run is directly comparable against
  /// the no-dep baseline.
  [[nodiscard]] double keys_ns_per_test() const {
    return tests_streamed == 0
               ? 0.0
               : stages.keys * 1e9 / static_cast<double>(tests_streamed);
  }
  [[nodiscard]] std::string to_string() const;
};

/// Per-chunk delivery: the chunk's novel tests, their models x tests
/// verdict matrix, and the chunk accounting.  Duplicate tests are not
/// re-delivered (their verdicts equal an earlier chunk's).
using StreamChunkSink = std::function<void(
    const std::vector<litmus::LitmusTest>& novel_tests,
    const BitMatrix& verdicts, const StreamChunkStats& stats)>;

/// Batched, parallel (model, test) verdict evaluation.
class VerdictEngine {
 public:
  explicit VerdictEngine(EngineOptions options = {});
  ~VerdictEngine();

  VerdictEngine(const VerdictEngine&) = delete;
  VerdictEngine& operator=(const VerdictEngine&) = delete;

  /// Evaluates the full `models` x `tests` cross product; bit (m, t) of
  /// the result is the verdict of model `m` on test `t`.  Tests are
  /// grouped into classes by their keys (unless cache_enabled is off
  /// and no store is attached), and only the first test of each class
  /// is decided.
  [[nodiscard]] BitMatrix run_matrix(
      const std::vector<core::MemoryModel>& models,
      const std::vector<litmus::LitmusTest>& tests);

  /// Streaming evaluation: pulls chunks from `source` until exhausted,
  /// evaluates the `models` x chunk product for each, and invokes
  /// `on_chunk` (may be null) after every chunk.  Tests whose key
  /// appeared earlier in the stream are counted as duplicates and
  /// skipped, so each chunk's novel tests are unique classes and each
  /// is decided once.  The dedup set stores the 128-bit
  /// fingerprints directly (16 bytes per class, no Analysis and no key
  /// string ever materialized), so the peak resident set stays
  /// O(chunk size + unique classes) no matter how long the stream runs.
  ///
  /// The run is a parallel pipeline: a ChunkPrefetcher thread
  /// produces the next chunk while the current one is consumed,
  /// fingerprinting fans out across the work-stealing pool with
  /// per-worker scratch tables, and claims go to a mutex-striped
  /// ShardedKeySet.  Streamed results are bit-for-bit
  /// deterministic under any thread count: chunk boundaries come from
  /// the single producer, within-chunk duplicate resolution picks the
  /// minimum index regardless of claim order, and novel tests, verdict
  /// bits, and chunk stats are folded in chunk order.
  StreamStats run_stream(const std::vector<core::MemoryModel>& models,
                         TestSource& source, const StreamChunkSink& on_chunk,
                         const StreamOptions& stream_options = {});

  /// Attaches a persistent verdict store (caller-owned, may be null to
  /// detach) — run_matrix's only cross-batch cache.  Every batch then
  /// groups its tests: each canonical class probes the store for its
  /// full row before evaluating, and evaluated rows are written back.
  /// The store is used only when every model has a store column
  /// (custom-free, see store::model_store_key) — it holds canonical
  /// fingerprints exclusively.
  void set_store(store::VerdictStore* store) { store_ = store; }
  [[nodiscard]] store::VerdictStore* store() const { return store_; }

  /// Stats of the most recent batch.
  [[nodiscard]] const EngineStats& last_stats() const { return last_stats_; }
  /// Stats accumulated over the engine's lifetime.
  [[nodiscard]] const EngineStats& total_stats() const { return total_stats_; }

  [[nodiscard]] const EngineOptions& options() const { return options_; }

  /// Threads a batch will actually use (resolves the 0 = hardware
  /// default).
  [[nodiscard]] int effective_threads() const;

 private:
  [[nodiscard]] core::Engine resolve_backend(int num_events) const;
  WorkStealingPool& pool();
  /// Runs `range(begin, end)` over contiguous ranges of [0, n) on the
  /// pool (about four per thread), or once over all of it serially.
  void for_ranges(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& range);
  /// The one row evaluator behind both entry points.  Decides the
  /// verdict rows of tests[rows[k]] into column k of `verdicts`
  /// (models x rows.size()).  With `vstore` set, each row is first
  /// probed by its key (`keys` is aligned with `tests`) in the store
  /// columns `store_cols`; the misses are evaluated test-major on the
  /// pool through core::PreparedTest and written back under one
  /// exclusive lock.  Adds checks, store and backend counts to `stats`.
  void decide_rows(const std::vector<core::MemoryModel>& models,
                   const std::vector<litmus::LitmusTest>& tests,
                   const std::vector<int>& rows,
                   const std::vector<util::Key128>& keys,
                   store::VerdictStore* vstore,
                   const std::vector<int>& store_cols, BitMatrix& verdicts,
                   EngineStats& stats);

  EngineOptions options_;
  std::unique_ptr<WorkStealingPool> pool_;  // created on first parallel batch
  store::VerdictStore* store_ = nullptr;    // caller-owned, optional

  EngineStats last_stats_;
  EngineStats total_stats_;
};

}  // namespace mcmc::engine
