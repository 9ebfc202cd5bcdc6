// The fingerprint audit: the tests' independent check of the engine's
// class keys.
//
// VerdictEngine::run_stream dedups by 128-bit canonical fingerprints
// (litmus::canonical_fingerprint) and never builds the legacy
// litmus::canonical_key strings.  KeyAudit recomputes both for every
// test it sees, counts the classes the strings define, and counts the
// two ways the fingerprints could disagree with them:
//
//   collision   two distinct key strings share one fingerprint (the
//               stream would merge two classes), and
//   split       one key string gets two fingerprints (the stream would
//               decide one class twice).
//
// With both counts zero, fingerprint classes are exactly key classes,
// so a stream over the same tests must report novel_tests == classes().
// Feed it a vector (add) or wrap a source (AuditedSource); the audit
// costs an Analysis and a key string per test plus one retained string
// per class, so it belongs in tests, not in the pipeline it checks.
//
// A vector's keys are computed on a few worker threads (one KeyScratch
// each), then folded into the class maps serially in vector order, so
// the counts are those of a one-test-at-a-time audit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/analysis.h"
#include "engine/test_stream.h"
#include "engine/thread_pool.h"
#include "litmus/test.h"
#include "util/hash128.h"

namespace mcmc::key_audit {

class KeyAudit {
 public:
  KeyAudit()
      : pool_(static_cast<int>(
            std::clamp(std::thread::hardware_concurrency(), 1U, 4U))),
        scratch_(static_cast<std::size_t>(pool_.num_threads())) {}

  void add(const std::vector<litmus::LitmusTest>& tests) {
    const std::size_t n = tests.size();
    batch_fingerprints_.resize(n);
    batch_keys_.resize(n);
    const std::size_t workers = scratch_.size();
    pool_.parallel_for(workers, [&](std::size_t w) {
      litmus::KeyScratch& scratch = scratch_[w];
      for (std::size_t i = w; i < n; i += workers) {
        batch_fingerprints_[i] =
            litmus::canonical_fingerprint(tests[i], scratch);
        const core::Analysis analysis(tests[i].program());
        batch_keys_[i] =
            litmus::canonical_key(analysis, tests[i].outcome(), scratch);
      }
    });
    for (std::size_t i = 0; i < n; ++i) {
      fold(batch_fingerprints_[i], batch_keys_[i]);
    }
  }

  /// Tests audited.
  [[nodiscard]] std::size_t tests() const { return tests_; }
  /// Distinct canonical_key strings among them.
  [[nodiscard]] std::size_t classes() const { return fingerprint_of_.size(); }
  /// Tests that opened a key class on a fingerprint another class holds.
  [[nodiscard]] std::size_t collisions() const { return collisions_; }
  /// Tests whose fingerprint differs from their key class's first one.
  [[nodiscard]] std::size_t splits() const { return splits_; }

 private:
  void fold(const util::Key128& fingerprint, const std::string& key) {
    ++tests_;
    const auto known = fingerprint_of_.find(key);
    if (known != fingerprint_of_.end()) {
      if (known->second != fingerprint) ++splits_;
      return;
    }
    // A new class.  Its fingerprint can only be known already if
    // another class claimed it.
    if (!fingerprints_.insert(fingerprint).second) ++collisions_;
    fingerprint_of_.emplace(key, fingerprint);
  }

  engine::WorkStealingPool pool_;
  std::vector<litmus::KeyScratch> scratch_;  // one per pool thread
  // Per-test results of the batch being added, reused across batches.
  std::vector<util::Key128> batch_fingerprints_;
  std::vector<std::string> batch_keys_;
  std::unordered_map<std::string, util::Key128> fingerprint_of_;
  std::unordered_set<util::Key128, util::Key128Hash> fingerprints_;
  std::size_t tests_ = 0;
  std::size_t collisions_ = 0;
  std::size_t splits_ = 0;
};

/// Audits every test of `inner` as it passes through, leaving chunks
/// unchanged.  run_stream pulls it from its prefetcher thread; read the
/// audit after run_stream returns.
class AuditedSource final : public engine::TestSource {
 public:
  AuditedSource(engine::TestSource& inner, KeyAudit& audit)
      : inner_(inner), audit_(audit) {}

  bool next_chunk(std::vector<litmus::LitmusTest>& out) override {
    const bool more = inner_.next_chunk(out);
    audit_.add(out);
    return more;
  }

 private:
  engine::TestSource& inner_;
  KeyAudit& audit_;
};

}  // namespace mcmc::key_audit
