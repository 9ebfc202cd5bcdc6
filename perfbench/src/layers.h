// Per-layer measurements made from outside, by timing calls into each
// layer's public functions on a seeded sample of canonical classes.
#pragma once

#include <string>
#include <vector>

#include "core/model.h"
#include "litmus/test.h"
#include "result.h"
#include "trace.h"
#include "util/hash128.h"

namespace perfbench {

struct LayerInputs {
  /// Seeded sample of distinct canonical classes.
  std::vector<mcmc::litmus::LitmusTest> sample;
  /// The 90-model served space.
  std::vector<mcmc::core::MemoryModel> models;
  /// A warm store file to open, probe and save (a copy is used).  Empty:
  /// a store is built from the sample's own verdict rows.
  std::string store_path;
  /// Keys present in that store (ignored when store_path is empty).
  std::vector<mcmc::util::Key128> store_keys;
  /// Directory for the files these measurements write.
  std::string scratch_dir;
};

/// Fills the litmus.*, core.*, sat.*, store.* and serve codec entries
/// of `out.layers`, and fails the gate if the three checkers disagree
/// on any sampled cell or a stored row cannot be probed.
void measure_layers(const LayerInputs& in, RunResult& out, Tracer& tracer);

/// The 90-model space litmusd serves and the sweep decides.
std::vector<mcmc::core::MemoryModel> served_models();

}  // namespace perfbench
