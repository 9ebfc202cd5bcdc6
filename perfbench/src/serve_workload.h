// litmusd traffic: an open-loop generator against a daemon serving a
// pre-warmed verdict store.
//
//   serve_read   probes and checks of classes already in the store,
//                drawn with the seed across the whole store.
//   serve_mixed  the same, plus a seeded share of checks carrying
//                with-dep tests that are absent from the store, so the
//                batcher computes, appends and commits beside the reads.
#pragma once

#include <cstdint>
#include <string>

#include "result.h"
#include "trace.h"

namespace perfbench {

struct ServeConfig {
  bool mixed = false;
  double seconds = 10.0;
  std::uint64_t seed = 1;
  int connections = 1;     ///< generator connections (at most nproc)
  int daemon_threads = 1;  ///< litmusd engine threads
  std::string litmusd;     ///< daemon binary
  std::string fixture_dir; ///< warm store + class corpus (build_fixture)
  std::string work_dir;    ///< per-run files: store copy, socket, logs
};

/// Builds the warm-store fixture in `dir`: every canonical class of the
/// no-dep naive space (445,565) with its verdict row for the 90 served
/// models, and the class representatives as a corpus, one per line.
/// Returns false (with `error`) on failure.
bool build_fixture(const std::string& dir, int threads, std::string& error);

void run_serve(const ServeConfig& config, RunResult& out, Tracer& tracer);

}  // namespace perfbench
