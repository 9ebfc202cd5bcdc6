// Crash-safe persistent verdict store.
//
// The engine's only cross-batch verdict cache: VerdictEngine keeps no
// verdicts between batches of its own, so reuse comes from a store
// attached with set_store (the stream, litmusd, and the distinguish
// sweep attach one).  A file-less VerdictStore(meta) is an in-memory
// cache; one opened on a path outlives the process — without it every
// run re-derives all ~445k canonical-class verdicts and an interrupted
// full-space stream restarts from zero.  The file is versioned and
// checksummed, maps 128-bit canonical test fingerprints (util::Key128)
// to packed per-model verdict words, and carries an optional stream
// checkpoint so an exhaustive run can resume from its last sealed chunk.
//
// Durability model (see README "Persistence guarantees"):
//
//   * Atomic commit: save() writes `path + ".tmp"`, fsyncs, and
//     renames over `path`.  A crash at ANY point leaves either the old
//     complete file or the new complete file at `path` — never a
//     partial one (a leftover .tmp is inert and overwritten next save).
//   * Checksums: the header and every section payload carry a 128-bit
//     content hash; load verifies all of them before using any byte,
//     so truncation, torn writes, and bit flips are detected, not
//     propagated into verdicts.
//   * Invalidation: the header carries a fingerprint of the model zoo
//     the verdict columns were computed against AND the
//     generator/canonicalization schema version they were keyed under
//     (kSpaceSchemaVersion).  Open with a different zoo or schema and
//     the file self-invalidates (ignored, rebuilt on next save) — a
//     stale cache can never serve a verdict for the wrong model, and a
//     cache written under an older fingerprint/space schema can never
//     mix its rows into a newer run.
//   * Graceful degradation: a corrupt file is quarantined (renamed to
//     `path + ".corrupt"`) and open() returns an empty store; callers
//     recompute and repopulate.  Recovery never throws, never crashes,
//     and never yields a wrong verdict — the worst case is doing the
//     work the cache would have saved.
//
// All filesystem access goes through store::Fs, so every recovery path
// above is exercised by fault injection (store/fs.h) in the dedicated
// store test suites.
//
// Thread-safety: shared read, serialized append/commit — and the
// contract is compile-time checked.  The store's reader-writer lock is
// exposed as mu(); the `_locked` methods carry REQUIRES_SHARED (probes)
// or REQUIRES (appends) on it, so Clang Thread Safety Analysis rejects
// a probe without at least a shared hold and an append without the
// exclusive hold.  The convenience wrappers (probe_bit, probe_row,
// set_bit, checkpoint accessors) are EXCLUDES(mu()): they take the
// right lock themselves, one call at a time.  Batch writers (the
// engine's chunk write-back) hold one util::ExclusiveLock over
// mu() and call set_bit_locked per cell — one acquisition per batch.
//
// Any number of threads may probe concurrently — litmusd's
// per-connection readers do exactly that — while appends serialize
// through the exclusive lock; save() may run concurrently with probes
// (it serializes under the same shared view) but excludes appends, so
// a commit is always a consistent snapshot.  Hit/miss counters are
// relaxed atomics outside the lock.  open() constructs fresh state
// (populating it under the exclusive lock it has sole access to);
// column_of reads post-construction immutable state and needs no lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/model.h"
#include "store/fs.h"
#include "util/hash128.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mcmc::store {

/// On-disk format version; bumped on any layout change.  A file with a
/// different version is ignored (not quarantined — it belongs to a
/// different build, not to bit rot).
inline constexpr std::uint32_t kStoreFormatVersion = 1;

/// Generator/canonicalization schema the verdict rows were computed
/// under; bumped whenever the meaning of a canonical fingerprint or of
/// a stream cursor changes (new space dimensions, fingerprint layout
/// changes) even though the file layout itself does not.  The zoo
/// fingerprint alone cannot catch that drift — the models may be
/// identical while every key means something else.  Files written
/// before this field existed carry 0 in the (then reserved) header
/// slot, so they self-invalidate against any real version.
///   2 = dependency-extended generator (data/ctrl dep slots, digest-
///       pinned stream cursors); pre-dep stores wrote 0.
inline constexpr std::uint32_t kSpaceSchemaVersion = 2;

/// The column key of a model: the same string the VerdictEngine keys
/// its model classes by, so store columns and engine model classes
/// match by string equality.  Empty for formulas
/// with custom predicates — their semantics may observe raw identity,
/// so their verdicts are never persisted.
[[nodiscard]] std::string model_store_key(const core::MemoryModel& model);

/// Identity of a store: the ordered model list its verdict columns are
/// computed against.  Two stores are interchangeable iff their zoo
/// fingerprints match (the fingerprint hashes the ordered keys, so
/// reordering, renaming a formula, or resizing the zoo all invalidate).
struct StoreMeta {
  std::vector<std::string> model_keys;
  /// Schema the entries are valid under (see kSpaceSchemaVersion);
  /// callers normally leave the default.
  std::uint32_t schema = kSpaceSchemaVersion;

  [[nodiscard]] static StoreMeta from_models(
      const std::vector<core::MemoryModel>& models);

  [[nodiscard]] int num_models() const {
    return static_cast<int>(model_keys.size());
  }
  [[nodiscard]] util::Key128 zoo_fingerprint() const;
};

/// Resume state of an interrupted stream: everything run_stream needs
/// to continue from the first unsealed chunk — cumulative counters,
/// the cross-chunk dedup set, the source's serialized cursor, and an
/// opaque sink blob (the Theorem harness stores its fold state there).
struct StreamCheckpoint {
  std::uint64_t chunks = 0;
  std::uint64_t tests_streamed = 0;
  std::uint64_t novel_tests = 0;
  std::uint64_t duplicate_tests = 0;
  std::vector<util::Key128> seen_keys;
  std::vector<std::uint64_t> source_cursor;
  std::vector<std::uint64_t> sink_state;
};

/// Checkpoint/resume configuration for VerdictEngine::run_stream (see
/// StreamOptions::persistence).  The engine seals every
/// `checkpoint_every_chunks` chunks: it snapshots the source cursor
/// and dedup set, asks the sink for its state, and commits the whole
/// store file atomically.  With `resume`, a checkpoint present in the
/// attached store restores all of that before the first chunk.
struct StreamPersistence {
  std::string path;                   ///< store file (empty = disabled)
  Fs* fs = nullptr;                   ///< null = the real filesystem
  int checkpoint_every_chunks = 64;
  bool resume = false;
  /// Serializes the sink's fold state into the checkpoint.
  std::function<void(std::vector<std::uint64_t>&)> save_sink;
  /// Restores sink state from a checkpoint; returning false aborts the
  /// resume (the run restarts from scratch instead of diverging).
  std::function<bool(const std::vector<std::uint64_t>&)> restore_sink;
  /// Test hook: after this many successful seals, throw
  /// StreamInterrupted — the file is then bit-for-bit what a SIGKILL
  /// right after the atomic rename leaves behind.  -1 never fires.
  int kill_after_seals = -1;
};

/// Thrown by the kill_after_seals test hook (and nothing else): lets
/// recovery tests produce a mid-stream interruption whose on-disk
/// state is exactly a kill's.
struct StreamInterrupted : std::runtime_error {
  explicit StreamInterrupted(const std::string& what)
      : std::runtime_error(what) {}
};

/// How open() classified the file it found.
enum class OpenOutcome {
  Fresh,            ///< no file (or unreadable): empty store
  Loaded,           ///< parsed, verified, adopted
  VersionMismatch,  ///< other format version: ignored, not quarantined
  SchemaMismatch,   ///< other generator/fingerprint schema: self-invalidated
  ZooMismatch,      ///< different model zoo: self-invalidated
  Corrupt,          ///< checksum/structure failure: quarantined
};

[[nodiscard]] std::string to_string(OpenOutcome outcome);

class VerdictStore;

struct OpenResult {
  std::unique_ptr<VerdictStore> store;  ///< never null (empty on failure)
  OpenOutcome outcome = OpenOutcome::Fresh;
  std::string detail;                   ///< human-readable diagnosis
};

/// The in-memory store: canonical test fingerprint -> one packed row
/// of per-model verdict bits plus a validity mask (rows fill in
/// model-subset order: the extremes stream contributes 2 columns, the
/// full sweep the rest).
class VerdictStore {
 public:
  explicit VerdictStore(StoreMeta meta);

  /// Loads `path` (verifying version, zoo fingerprint, and every
  /// checksum) or returns an empty store, per the durability model in
  /// the header comment.  Never throws on bad input.
  [[nodiscard]] static OpenResult open(const std::string& path,
                                       StoreMeta meta, Fs* fs = nullptr);

  /// Atomically commits the store (entries + checkpoint, if any) to
  /// `path`.  False on any filesystem failure; `path` then still holds
  /// whatever complete file it held before.
  [[nodiscard]] bool save(const std::string& path, Fs* fs = nullptr,
                          std::string* error = nullptr) EXCLUDES(mu_);

  [[nodiscard]] const StoreMeta& meta() const { return meta_; }
  [[nodiscard]] int num_models() const { return meta_.num_models(); }
  [[nodiscard]] std::size_t size() const EXCLUDES(mu_) {
    util::SharedLock lock(mu_);
    return index_.size();
  }
  [[nodiscard]] std::size_t words_per_row() const { return words_; }

  /// Column of the model with this engine cache key; -1 if absent
  /// (unknown model, or the empty custom-predicate key).
  [[nodiscard]] int column_of(const std::string& model_key) const;

  /// The store's reader-writer lock, for callers batching many
  /// `_locked` calls under one acquisition (util::SharedLock for
  /// probes, util::ExclusiveLock for appends).
  [[nodiscard]] util::SharedMutex& mu() const RETURN_CAPABILITY(mu_) {
    return mu_;
  }

  // ---- The locking contract, in the types: probes require at least a
  // shared hold of mu(), appends require the exclusive hold. ----

  /// The verdict bit of (test, column), if present.  Counts one cell
  /// hit or miss.
  [[nodiscard]] std::optional<bool> probe_bit_locked(util::Key128 test,
                                                     int col) const
      REQUIRES_SHARED(mu_);

  /// Full-row probe: true iff every column in `cols` is present, in
  /// which case bit i of `out` (indexed like `cols`) is column
  /// cols[i]'s verdict.  Counts |cols| hits on success, |cols| misses
  /// otherwise.
  [[nodiscard]] bool probe_row_locked(util::Key128 test,
                                      const std::vector<int>& cols,
                                      std::vector<std::uint64_t>& out) const
      REQUIRES_SHARED(mu_);

  /// Appends (or overwrites) one verdict bit.
  void set_bit_locked(util::Key128 test, int col, bool verdict) REQUIRES(mu_);

  // ---- Lock-taking wrappers: one acquisition per call. ----

  [[nodiscard]] std::optional<bool> probe_bit(util::Key128 test, int col) const
      EXCLUDES(mu_) {
    util::SharedLock lock(mu_);
    return probe_bit_locked(test, col);
  }

  [[nodiscard]] bool probe_row(util::Key128 test, const std::vector<int>& cols,
                               std::vector<std::uint64_t>& out) const
      EXCLUDES(mu_) {
    util::SharedLock lock(mu_);
    return probe_row_locked(test, cols, out);
  }

  void set_bit(util::Key128 test, int col, bool verdict) EXCLUDES(mu_) {
    util::ExclusiveLock lock(mu_);
    set_bit_locked(test, col, verdict);
  }

  /// Cell-level accounting since construction (or reset_counters):
  /// the store hit rate bench_exhaustive reports is
  /// hits / (hits + misses).  Counted with relaxed atomics, so
  /// concurrent probes race only on who counts first, never on the
  /// totals.
  [[nodiscard]] std::uint64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  void reset_counters() {
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
  }

  // ---- Stream checkpoint (persisted alongside the entries).  The
  // getter hands out a copy: the stored value lives under mu_, so a
  // reference would dangle the moment an appender ran. ----
  [[nodiscard]] std::optional<StreamCheckpoint> checkpoint() const
      EXCLUDES(mu_) {
    util::SharedLock lock(mu_);
    return checkpoint_;
  }
  void set_checkpoint(StreamCheckpoint ck) EXCLUDES(mu_) {
    util::ExclusiveLock lock(mu_);
    checkpoint_ = std::move(ck);
  }
  void clear_checkpoint() EXCLUDES(mu_) {
    util::ExclusiveLock lock(mu_);
    checkpoint_.reset();
  }

 private:
  [[nodiscard]] std::uint32_t row_of(util::Key128 test) REQUIRES(mu_);
  [[nodiscard]] std::string serialize() const REQUIRES_SHARED(mu_);

  StoreMeta meta_;
  std::size_t words_ = 0;  ///< words per row (and per validity mask)
  /// Readers-writer lock implementing the header contract: probes,
  /// size(), and save()'s serialization hold it shared; appends and
  /// the checkpoint setters hold it exclusive.
  mutable util::SharedMutex mu_;
  std::unordered_map<util::Key128, std::uint32_t, util::Key128Hash> index_
      GUARDED_BY(mu_);
  std::vector<std::uint64_t> valid_ GUARDED_BY(mu_);  ///< size() x words_
  std::vector<std::uint64_t> bits_ GUARDED_BY(mu_);   ///< size() x words_
  std::unordered_map<std::string, int> column_;  // immutable post-ctor
  std::optional<StreamCheckpoint> checkpoint_ GUARDED_BY(mu_);
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace mcmc::store
