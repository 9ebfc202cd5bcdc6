#include "sweep_workload.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "engine/test_stream.h"
#include "engine/verdict_engine.h"
#include "enumeration/exhaustive.h"
#include "enumeration/suite.h"
#include "explore/distinguish.h"
#include "host.h"
#include "layers.h"
#include "peak_rss.h"
#include "stats.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using mcmc::litmus::LitmusTest;

constexpr int kEngineThreads = 1;
constexpr int kConsumerLane = 1;
constexpr int kProducerLane = 2;
/// Set-ups measured after each pass, besides the pass's own: a pass's
/// set-up time is the median of these, so one cold start does not
/// decide it.
constexpr int kSetupsPerPass = 4;
/// Stream positions captured for the traced run's layer sample.
constexpr std::size_t kSamplePositions = 4096;

mcmc::enumeration::ExhaustiveOptions sweep_space() {
  mcmc::enumeration::ExhaustiveOptions options;
  options.bounds.fences = false;
  return options;
}

/// Times every next_chunk of the wrapped source (it runs on the
/// engine's producer thread), marks when the first chunk was pulled,
/// and copies the tests at `positions` (ascending stream indices).
class TimedSource final : public mcmc::engine::TestSource {
 public:
  TimedSource(mcmc::engine::TestSource& inner, Tracer& tracer,
              std::vector<std::uint64_t> positions)
      : inner_(inner), tracer_(tracer), positions_(std::move(positions)) {}

  bool next_chunk(std::vector<LitmusTest>& out) override {
    const std::size_t before = out.size();
    const Clock::time_point t0 = Clock::now();
    const bool more = inner_.next_chunk(out);
    const Clock::time_point t1 = Clock::now();
    busy_ += seconds_between(t0, t1);
    if (chunks_++ == 0) first_end_.store(t1.time_since_epoch().count());
    tracer_.add("enumeration.next_chunk", kProducerLane, tracer_.at(t0),
                seconds_between(t0, t1));
    const std::uint64_t end = tests_ + (out.size() - before);
    while (next_pos_ < positions_.size() && positions_[next_pos_] < end) {
      captured_.push_back(out[before + (positions_[next_pos_] - tests_)]);
      ++next_pos_;
    }
    tests_ = end;
    return more;
  }

  /// When the first chunk was pulled; valid once the consumer has
  /// received that chunk (the hand-off synchronizes).
  [[nodiscard]] Clock::time_point first_end() const {
    return Clock::time_point(Clock::duration(first_end_.load()));
  }
  [[nodiscard]] double busy() const { return busy_; }
  [[nodiscard]] std::uint64_t tests() const { return tests_; }
  [[nodiscard]] std::vector<LitmusTest>& captured() { return captured_; }

 private:
  mcmc::engine::TestSource& inner_;
  Tracer& tracer_;
  std::vector<std::uint64_t> positions_;
  std::size_t next_pos_ = 0;
  std::vector<LitmusTest> captured_;
  double busy_ = 0.0;
  std::uint64_t tests_ = 0;
  std::size_t chunks_ = 0;
  std::atomic<Clock::rep> first_end_{0};
};

struct PassResult {
  double setup_s = 0.0;
  double post_s = 0.0;  ///< first chunk pulled to harness return
  double wall_s = 0.0;  ///< the whole pass, set-up included
  mcmc::explore::TheoremHarnessReport report;
  double harness_s = 0.0;
  double produce_busy_s = 0.0;
  std::uint64_t produced = 0;
  long long pairs = 0;
  bool contained = false;
  std::vector<LitmusTest> captured;
};

/// One set-up without a sweep: what a sweep pays before its first chunk.
double measure_setup() {
  const Clock::time_point t0 = Clock::now();
  const auto models = served_models();
  mcmc::engine::EngineOptions options;
  options.num_threads = kEngineThreads;
  mcmc::engine::VerdictEngine engine(options);
  mcmc::enumeration::ExhaustiveStream stream{sweep_space()};
  std::vector<LitmusTest> chunk;
  (void)stream.next_chunk(chunk);
  return seconds_between(t0, Clock::now());
}

PassResult run_pass(const mcmc::explore::DistinguishMatrix& by_suite,
                    Tracer& tracer, std::vector<std::uint64_t> positions) {
  PassResult pass;
  const Clock::time_point t0 = Clock::now();
  const auto models = served_models();
  mcmc::engine::EngineOptions options;
  options.num_threads = kEngineThreads;
  mcmc::engine::VerdictEngine engine(options);
  mcmc::enumeration::ExhaustiveStream stream{sweep_space()};
  TimedSource source(stream, tracer, std::move(positions));
  mcmc::explore::TheoremHarnessOptions harness;

  bool first = true;
  Clock::time_point prev;
  double sweep_before = 0.0;
  const Clock::time_point call = Clock::now();
  const auto matrix = mcmc::explore::distinguishability_streamed(
      engine, models, source, harness, &pass.report,
      [&](const mcmc::engine::StreamChunkStats& cs) {
        const Clock::time_point now = Clock::now();
        if (first) {
          prev = source.first_end();
          first = false;
        }
        if (tracer.enabled()) {
          // Lay the chunk's stages out backwards from its delivery: the
          // candidate sweep runs in the sink after keys, dedup and the
          // extremes (prefilter) evaluation.
          const double end = tracer.at(now);
          const double sweep = pass.report.sweep_seconds - sweep_before;
          const auto chunk = tracer.add("engine.chunk", kConsumerLane,
                                        tracer.at(prev), end - tracer.at(prev));
          double t = end - sweep;
          tracer.add("explore.candidate_sweep", kConsumerLane, t, sweep, chunk);
          t -= cs.stages.verdict;
          tracer.add("explore.prefilter", kConsumerLane, t, cs.stages.verdict,
                     chunk);
          t -= cs.stages.dedup;
          tracer.add("engine.dedup", kConsumerLane, t, cs.stages.dedup, chunk);
          t -= cs.stages.keys;
          tracer.add("engine.keys", kConsumerLane, t, cs.stages.keys, chunk);
          tracer.add("engine.wait", kConsumerLane, tracer.at(prev),
                     t - tracer.at(prev), chunk);
        }
        sweep_before = pass.report.sweep_seconds;
        prev = now;
      });
  const Clock::time_point end = Clock::now();
  pass.setup_s = seconds_between(t0, source.first_end());
  pass.post_s = seconds_between(source.first_end(), end);
  pass.wall_s = seconds_between(t0, end);
  pass.harness_s = seconds_between(call, end);
  pass.produce_busy_s = source.busy();
  pass.produced = source.tests();
  pass.pairs = matrix.distinguished_pairs();
  pass.contained = matrix.subset_of(by_suite);
  pass.captured = std::move(source.captured());
  tracer.add("explore.harness", 0, tracer.at(call), pass.harness_s);
  return pass;
}

}  // namespace

void run_sweep(const SweepConfig& config, RunResult& out, Tracer& tracer) {
  const auto models = served_models();
  mcmc::engine::EngineOptions options;
  options.num_threads = kEngineThreads;
  mcmc::explore::DistinguishMatrix by_suite;
  {
    mcmc::engine::VerdictEngine engine(options);
    by_suite = mcmc::explore::distinguishability(
        engine, models, mcmc::enumeration::corollary1_suite(false));
    out.env["engine_threads"] = std::to_string(engine.effective_threads());
  }

  std::vector<std::uint64_t> positions;
  if (tracer.enabled()) {
    mcmc::util::Rng rng(config.seed);
    for (std::size_t i = 0; i < kSamplePositions; ++i) {
      positions.push_back(rng.below(static_cast<std::uint64_t>(kSweepTests)));
    }
    std::sort(positions.begin(), positions.end());
    positions.erase(std::unique(positions.begin(), positions.end()),
                    positions.end());
  }

  // Per-pass values, and the share of CPU time the host stole during
  // each pass.  Every figure is the median over the quiet passes
  // (stats.h).
  std::vector<double> steal;
  std::vector<double> setups;
  std::vector<double> rates;
  std::vector<double> pass_ms;
  std::map<std::string, std::vector<double>> per_pass;
  std::vector<LitmusTest> captured;
  std::size_t quiet = 0;
  std::size_t want = 1;  ///< passes the nominal run length holds
  const Clock::time_point start = Clock::now();
  for (;;) {
    const CpuTicks ticks0 = read_cpu_ticks();
    PassResult pass = run_pass(by_suite, tracer, positions);
    positions.clear();  // one capture is enough
    ++out.attempted;
    const auto& report = pass.report;
    const auto& st = report.stream;
    const bool ok = static_cast<long long>(st.tests_streamed) == kSweepTests &&
                    static_cast<long long>(pass.produced) == kSweepTests &&
                    static_cast<long long>(st.novel_tests) == kSweepClasses &&
                    pass.pairs == kSweepPairs && pass.contained;
    if (!ok) {
      ++out.failed;
      out.fail_gate("sweep pass " + std::to_string(out.attempted) + ": " +
                    std::to_string(st.tests_streamed) + " tests, " +
                    std::to_string(st.novel_tests) + " classes, " +
                    std::to_string(pass.pairs) + " pairs, " +
                    (pass.contained ? "within" : "NOT within") +
                    " the Corollary-1 suite's pairs");
    }
    std::vector<double> pass_setups{pass.setup_s};
    for (int i = 0; i < kSetupsPerPass; ++i) {
      pass_setups.push_back(measure_setup());
    }
    steal.push_back(steal_share(ticks0, read_cpu_ticks()));
    quiet += steal.back() <= kQuietSteal ? 1 : 0;
    setups.push_back(median(pass_setups));
    rates.push_back(static_cast<double>(st.novel_tests) / pass.post_s);
    pass_ms.push_back(pass.wall_s * 1e3);
    if (!pass.captured.empty()) captured = std::move(pass.captured);

    const double tests = static_cast<double>(st.tests_streamed);
    auto& v = per_pass;
    v["enumeration.produce_busy_s"].push_back(pass.produce_busy_s);
    v["enumeration.produce_ns_per_test"].push_back(pass.produce_busy_s * 1e9 /
                                                   tests);
    v["enumeration.tests_streamed"].push_back(tests);
    v["engine.keys_s"].push_back(st.stages.keys);
    v["engine.keys_ns_per_test"].push_back(st.keys_ns_per_test());
    v["engine.dedup_s"].push_back(st.stages.dedup);
    v["engine.verdict_s"].push_back(st.stages.verdict);
    v["engine.novel_ratio"].push_back(static_cast<double>(st.novel_tests) /
                                      tests);
    // Consumer time not spent in a stage or in the candidate sweep: the
    // consumer waiting for the producer's next chunk.
    v["engine.consumer_wait_s"].push_back(pass.harness_s - st.stages.keys -
                                          st.stages.dedup - st.stages.verdict -
                                          report.sweep_seconds);
    v["explore.candidates"].push_back(
        static_cast<double>(report.candidate_tests));
    v["explore.sweep_s"].push_back(report.sweep_seconds);
    out.raw["pass_seconds"].push_back(pass.harness_s);
    // Another pass only if one more of this length still fits.
    want = std::max<std::size_t>(
        1, static_cast<std::size_t>(config.seconds / pass.harness_s));
    if (!measure_more(seconds_between(start, Clock::now()), pass.harness_s,
                      config.seconds, quiet, want)) {
      break;
    }
  }

  const auto kept = quiet_windows(steal, want);
  out.metrics["setup_s"] = {median(pick(setups, kept)), "s"};
  out.metrics["classes_per_s"] = {median(pick(rates, kept)), "1/s"};
  // A sweep answers one request, "decide this space", so its latency is
  // the wall time of a whole pass: unlike a chunk's latency, it does not
  // depend on how the stream splits the space into chunks.
  out.metrics["p50_ms"] = {median(pick(pass_ms, kept)), "ms"};
  out.metrics["peak_rss_mb"] = {mcmc::bench::peak_rss_mb(), "MB"};
  out.raw["setup_s"] = setups;
  out.raw["classes_per_s"] = rates;
  out.raw["p50_ms"] = pass_ms;
  out.raw["steal"] = steal;
  out.env["passes"] = std::to_string(rates.size());
  out.env["quiet_passes"] = std::to_string(quiet);
  out.env["reported_passes"] = std::to_string(kept.size());

  if (!tracer.enabled()) return;
  static const std::map<std::string, std::string> kUnits = {
      {"enumeration.produce_busy_s", "s"},
      {"enumeration.produce_ns_per_test", "ns"},
      {"enumeration.tests_streamed", "count"},
      {"engine.keys_s", "s"},
      {"engine.keys_ns_per_test", "ns"},
      {"engine.dedup_s", "s"},
      {"engine.verdict_s", "s"},
      {"engine.novel_ratio", "ratio"},
      {"engine.consumer_wait_s", "s"},
      {"explore.candidates", "count"},
      {"explore.sweep_s", "s"}};
  for (const auto& [name, values] : per_pass) {
    out.layers[name] = {median(pick(values, kept)), kUnits.at(name)};
  }

  // The layer sample: distinct classes among the captured positions.
  LayerInputs in;
  in.models = models;
  in.scratch_dir = config.scratch_dir;
  std::unordered_set<mcmc::util::Key128, mcmc::util::Key128Hash> seen;
  mcmc::litmus::KeyScratch scratch;
  for (auto& test : captured) {
    if (seen.insert(mcmc::litmus::canonical_fingerprint(test, scratch))
            .second) {
      in.sample.push_back(std::move(test));
    }
  }
  measure_layers(in, out, tracer);
}

}  // namespace perfbench
