#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "core/analysis.h"
#include "core/checker.h"
#include "core/prepared.h"
#include "explore/distinguish.h"
#include "explore/space.h"
#include "litmus/parser.h"
#include "serve/protocol.h"
#include "store/verdict_store.h"

namespace perfbench {

namespace {

// Sample sizes: large enough that each timed loop runs for tens of
// milliseconds, small enough that the whole pass stays under a second
// or two (the SAT backend is ~50x the explicit one per cell).
constexpr std::size_t kPreparedTests = 512;
constexpr std::size_t kExplicitTests = 128;
constexpr std::size_t kSatTests = 12;
constexpr double kMinLoopSeconds = 0.05;

// Keeps the timed fingerprint loop's results observable.
volatile std::uint64_t g_sink = 0;

/// Times `body` on the tracer's clock and records one span for it.
template <typename Body>
double timed(Tracer& tracer, const char* span, Body&& body) {
  const double t0 = tracer.now();
  body();
  const double dt = tracer.now() - t0;
  tracer.add(span, 0, t0, dt);
  return dt;
}

}  // namespace

std::vector<mcmc::core::MemoryModel> served_models() {
  std::vector<mcmc::core::MemoryModel> models;
  for (const auto& choice : mcmc::explore::model_space(true)) {
    models.push_back(choice.to_model());
  }
  return models;
}

void measure_layers(const LayerInputs& in, RunResult& out, Tracer& tracer) {
  namespace fs = std::filesystem;
  const auto& sample = in.sample;
  const auto& models = in.models;
  if (sample.empty() || models.empty()) {
    out.fail_gate("layer sample is empty");
    return;
  }

  // ---- litmus: canonical fingerprint per test. ----
  {
    mcmc::litmus::KeyScratch scratch;
    std::size_t n = 0;
    std::uint64_t sink = 0;
    const double dt = timed(tracer, "litmus.fingerprint", [&] {
      const double t0 = tracer.now();
      do {
        for (const auto& t : sample) {
          sink ^= mcmc::litmus::canonical_fingerprint(t, scratch).lo;
          ++n;
        }
      } while (tracer.now() - t0 < kMinLoopSeconds);
    });
    out.layers["litmus.fingerprint_ns"] = {dt * 1e9 / static_cast<double>(n),
                                           "ns"};
    g_sink = sink;
  }

  // ---- core: PreparedTest build, prepared and per-cell explicit checks. ----
  const std::size_t np = std::min(kPreparedTests, sample.size());
  std::vector<std::unique_ptr<mcmc::core::PreparedTest>> prepared(np);
  const double build_s = timed(tracer, "core.prepared_build", [&] {
    for (std::size_t i = 0; i < np; ++i) {
      prepared[i] = std::make_unique<mcmc::core::PreparedTest>(
          sample[i].program(), sample[i].outcome());
    }
  });
  out.layers["core.prepared_build_us"] = {
      build_s * 1e6 / static_cast<double>(np), "us"};

  std::vector<std::vector<char>> verdict(np, std::vector<char>(models.size()));
  const double check_s = timed(tracer, "core.prepared_check", [&] {
    for (std::size_t i = 0; i < np; ++i) {
      for (std::size_t m = 0; m < models.size(); ++m) {
        verdict[i][m] = prepared[i]->allowed(models[m]) ? 1 : 0;
      }
    }
  });
  out.layers["core.prepared_check_ns"] = {
      check_s * 1e9 / static_cast<double>(np * models.size()), "ns"};

  const std::size_t ne = std::min(kExplicitTests, np);
  std::vector<std::unique_ptr<mcmc::core::Analysis>> analyses(ne);
  for (std::size_t i = 0; i < ne; ++i) {
    analyses[i] = std::make_unique<mcmc::core::Analysis>(sample[i].program());
  }
  std::size_t disagreements = 0;
  const double explicit_s = timed(tracer, "core.explicit_check", [&] {
    for (std::size_t i = 0; i < ne; ++i) {
      for (std::size_t m = 0; m < models.size(); ++m) {
        const bool v = mcmc::core::is_allowed(*analyses[i], models[m],
                                              sample[i].outcome(),
                                              mcmc::core::Engine::Explicit);
        disagreements += v != (verdict[i][m] != 0) ? 1 : 0;
      }
    }
  });
  out.layers["core.explicit_check_ns"] = {
      explicit_s * 1e9 / static_cast<double>(ne * models.size()), "ns"};

  // ---- sat: the CDCL backend on the same cells. ----
  const std::size_t ns = std::min(kSatTests, ne);
  const double sat_s = timed(tracer, "sat.check", [&] {
    for (std::size_t i = 0; i < ns; ++i) {
      for (std::size_t m = 0; m < models.size(); ++m) {
        const bool v = mcmc::core::is_allowed(*analyses[i], models[m],
                                              sample[i].outcome(),
                                              mcmc::core::Engine::Sat);
        disagreements += v != (verdict[i][m] != 0) ? 1 : 0;
      }
    }
  });
  out.layers["sat.check_us"] = {
      sat_s * 1e6 / static_cast<double>(ns * models.size()), "us"};
  if (disagreements != 0) {
    out.fail_gate(std::to_string(disagreements) +
                  " sampled cells differ between prepared, explicit and SAT "
                  "checks");
  }

  // ---- store: open, probe_row and save. ----
  const mcmc::store::StoreMeta meta = mcmc::explore::harness_store_meta(models);
  std::vector<mcmc::util::Key128> keys = in.store_keys;
  const std::string copy = in.scratch_dir + "/layers.store";
  std::error_code ec;
  fs::remove(copy, ec);
  if (!in.store_path.empty()) {
    fs::copy_file(in.store_path, copy, fs::copy_options::overwrite_existing,
                  ec);
    if (ec) out.fail_gate("cannot copy the warm store: " + ec.message());
  } else {
    // No warm store in this workload: build one from the sample's rows.
    mcmc::store::VerdictStore built(meta);
    mcmc::litmus::KeyScratch scratch;
    keys.clear();
    for (std::size_t i = 0; i < np; ++i) {
      const auto key = mcmc::litmus::canonical_fingerprint(sample[i], scratch);
      keys.push_back(key);
      for (std::size_t m = 0; m < models.size(); ++m) {
        built.set_bit(key,
                      built.column_of(mcmc::store::model_store_key(models[m])),
                      verdict[i][m] != 0);
      }
    }
    if (!built.save(copy)) out.fail_gate("cannot save the layer store");
  }
  std::unique_ptr<mcmc::store::VerdictStore> opened;
  const double open_s = timed(tracer, "store.open", [&] {
    opened = mcmc::store::VerdictStore::open(copy, meta).store;
  });
  out.layers["store.open_s"] = {open_s, "s"};
  std::vector<int> cols;
  for (const auto& model : models) {
    cols.push_back(opened->column_of(mcmc::store::model_store_key(model)));
  }
  std::size_t probes = 0;
  std::size_t missing = 0;
  std::vector<std::uint64_t> row;
  const double probe_s = timed(tracer, "store.probe_row", [&] {
    const double t0 = tracer.now();
    do {
      for (const auto& key : keys) {
        missing += opened->probe_row(key, cols, row) ? 0 : 1;
        ++probes;
      }
    } while (!keys.empty() && tracer.now() - t0 < kMinLoopSeconds);
  });
  if (keys.empty() || missing != 0) {
    out.fail_gate(std::to_string(missing) + " of " + std::to_string(probes) +
                  " store probes missed rows the store holds");
  }
  out.layers["store.probe_row_ns"] = {
      probes == 0 ? 0.0 : probe_s * 1e9 / static_cast<double>(probes), "ns"};
  bool saved = false;
  const double save_s =
      timed(tracer, "store.save", [&] { saved = opened->save(copy); });
  if (!saved) out.fail_gate("store save failed");
  out.layers["store.save_s"] = {save_s, "s"};
  fs::remove(copy, ec);

  // ---- serve: the client's codec calls (request encode + framing,
  // response unframing + decode). ----
  std::vector<mcmc::serve::Request> requests(np);
  std::vector<std::string> frames(np);
  for (std::size_t i = 0; i < np; ++i) {
    requests[i].type = mcmc::serve::MsgType::kCheck;
    requests[i].id = i + 1;
    requests[i].text = mcmc::litmus::write_test(sample[i]);
    mcmc::serve::Response response;
    response.type = mcmc::serve::MsgType::kVerdictRow;
    response.id = i + 1;
    response.row.source = mcmc::serve::VerdictSource::kStore;
    response.row.num_models = static_cast<std::uint32_t>(models.size());
    response.row.valid.assign((models.size() + 63) / 64, ~0ULL);
    response.row.bits.assign((models.size() + 63) / 64, 0);
    for (std::size_t m = 0; m < models.size(); ++m) {
      if (verdict[i][m] != 0) response.row.bits[m / 64] |= 1ULL << (m % 64);
    }
    mcmc::serve::append_frame(frames[i],
                              mcmc::serve::encode_response(response));
  }
  std::size_t encoded = 0;
  std::size_t bytes = 0;
  const double encode_s = timed(tracer, "serve.encode", [&] {
    const double t0 = tracer.now();
    do {
      for (const auto& request : requests) {
        std::string frame;
        mcmc::serve::append_frame(frame, mcmc::serve::encode_request(request));
        bytes += frame.size();
        ++encoded;
      }
    } while (tracer.now() - t0 < kMinLoopSeconds);
  });
  out.layers["serve.encode_ns"] = {
      encode_s * 1e9 / static_cast<double>(encoded), "ns"};
  std::size_t decoded = 0;
  std::size_t bad = 0;
  const double decode_s = timed(tracer, "serve.decode", [&] {
    const double t0 = tracer.now();
    do {
      for (const auto& frame : frames) {
        std::size_t consumed = 0;
        std::string payload;
        mcmc::serve::Response response;
        if (mcmc::serve::extract_frame(frame, consumed, payload) !=
                mcmc::serve::FrameStatus::kFrame ||
            !mcmc::serve::decode_response(payload, response)) {
          ++bad;
        }
        ++decoded;
      }
    } while (tracer.now() - t0 < kMinLoopSeconds);
  });
  if (bad != 0) out.fail_gate("encoded verdict rows failed to decode");
  out.layers["serve.decode_ns"] = {
      decode_s * 1e9 / static_cast<double>(decoded), "ns"};
  out.env["layer_sample_classes"] = std::to_string(sample.size());
  out.env["layer_encoded_bytes"] = std::to_string(bytes);
}

}  // namespace perfbench
