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
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/analysis.h"
#include "engine/test_stream.h"
#include "litmus/test.h"
#include "util/hash128.h"

namespace mcmc::key_audit {

class KeyAudit {
 public:
  void add(const litmus::LitmusTest& test) {
    ++tests_;
    // The fingerprint first: canonical_key's result aliases scratch_.
    const util::Key128 fingerprint =
        litmus::canonical_fingerprint(test, scratch_);
    const core::Analysis analysis(test.program());
    const std::string& key =
        litmus::canonical_key(analysis, test.outcome(), scratch_);
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

  void add(const std::vector<litmus::LitmusTest>& tests) {
    for (const auto& test : tests) add(test);
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
  litmus::KeyScratch scratch_;
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
    const std::size_t first = out.size();
    const bool more = inner_.next_chunk(out);
    for (std::size_t i = first; i < out.size(); ++i) audit_.add(out[i]);
    return more;
  }

 private:
  engine::TestSource& inner_;
  KeyAudit& audit_;
};

}  // namespace mcmc::key_audit
