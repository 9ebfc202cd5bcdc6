// Tests of the benchmark's own logic: open-loop latency accounting, the
// tail-percentile rule, and the serve correctness gate.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "engine/verdict_engine.h"
#include "layers.h"
#include "gate.h"
#include "litmus/catalog.h"
#include "loadgen.h"
#include "stats.h"

namespace perfbench {
namespace {

int one_lane(std::size_t) { return 0; }

TEST(OpenLoop, LatencyRunsFromTheDueTimeSoAStallInflatesLaterRequests) {
  // One connection, one request every 10 ms; the first reply stalls for
  // 120 ms.  Requests 1..5 were due during the stall: each is sent late,
  // and the wait counts in its latency.
  const PhaseResult r = run_open_loop(
      100.0, 6, std::vector<int>{0}, one_lane, [](int, std::size_t i) {
        if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(120));
        return true;
      });
  const auto lat = r.latencies();
  ASSERT_EQ(lat.size(), 6u);
  EXPECT_GE(lat[0], 0.110);
  for (std::size_t i = 1; i < 6; ++i) {
    const double due = static_cast<double>(i) / 100.0;
    EXPECT_NEAR(r.records[i].due, due, 1e-12);
    // Sent only after the stall ended, ~120 ms after the phase start.
    EXPECT_GE(r.records[i].sent, 0.118);
    EXPECT_GE(lat[i], 0.118 - due) << "request " << i;
  }
  // Timing from the send would have hidden the stall entirely.
  EXPECT_LT(r.records[3].done - r.records[3].sent, 0.05);
  EXPECT_GE(r.lags()[3], 0.118 - 0.03);
}

TEST(OpenLoop, FailedAndThrowingRequestsAreMisses) {
  const PhaseResult r = run_open_loop(
      1000.0, 4, std::vector<int>{0, 0}, one_lane, [](int, std::size_t i) {
        if (i == 1) throw std::runtime_error("transport");
        return i != 2;
      });
  EXPECT_EQ(r.failures(), 2u);
  const auto lat = r.latencies();
  EXPECT_EQ(lat[1], kMiss);
  EXPECT_EQ(lat[2], kMiss);
  EXPECT_LT(lat[3], kMiss);
}

TEST(OpenLoop, AStalledLaneDoesNotHoldTheOtherLane) {
  // Even requests go to lane 1 (one worker), odd ones to lane 0; the
  // first even request stalls.  Lane 0's requests stay on time while
  // the later lane-1 requests absorb the stall.
  const PhaseResult r = run_open_loop(
      200.0, 10, std::vector<int>{1, 0},
      [](std::size_t i) { return i % 2 == 0 ? 1 : 0; },
      [](int worker, std::size_t i) {
        EXPECT_EQ(worker, i % 2 == 0 ? 0 : 1);
        if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(60));
        return true;
      });
  const auto lat = r.latencies();
  for (std::size_t i = 1; i < 10; i += 2) EXPECT_LT(lat[i], 0.03) << i;
  EXPECT_GE(lat[2], 0.06 - 0.01);
  EXPECT_THROW(run_open_loop(
                   100.0, 2, std::vector<int>{0}, [](std::size_t) { return 1; },
                   [](int, std::size_t) { return true; }),
               std::invalid_argument);
}

TEST(Percentile, P99NeedsTenSamplesBeyondIt) {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  auto p = percentile(v, 0.99);
  EXPECT_EQ(p.beyond, 9u);
  EXPECT_FALSE(p.reportable);
  v.push_back(1000);
  p = percentile(v, 0.99);
  EXPECT_EQ(p.value, 990);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_TRUE(p.reportable);
}

TEST(Percentile, MissesSitBeyondEveryLimit) {
  std::vector<double> v(990, 0.001);
  v.insert(v.end(), 10, kMiss);
  const auto p = percentile(v, 0.99);
  EXPECT_TRUE(p.reportable);
  EXPECT_DOUBLE_EQ(p.value, 0.001);
  v.push_back(kMiss);  // an 11th miss reaches the p99 rank itself
  EXPECT_EQ(percentile(v, 0.99).value, kMiss);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(QuietWindows, KeepsTheQuietOnesOrTheLeastDisturbed) {
  const std::vector<double> steal{0.0, 0.30, 0.01, 0.05, 0.02, 0.10};
  // Three quiet windows (at most kQuietSteal), enough for two wanted.
  EXPECT_EQ(quiet_windows(steal, 2), (std::vector<std::size_t>{0, 2, 4}));
  // Four wanted: the quiet three and the least disturbed other one.
  EXPECT_EQ(quiet_windows(steal, 4), (std::vector<std::size_t>{0, 2, 3, 4}));
  EXPECT_EQ(quiet_windows(steal, 9).size(), steal.size());
  EXPECT_EQ(pick({5.0, 6.0, 7.0}, {0, 2}), (std::vector<double>{5.0, 7.0}));
}

TEST(QuietWindows, ARunStretchesOnlyWhileItLacksQuietWindows) {
  // Within the nominal length a run always measures on.
  EXPECT_TRUE(measure_more(8.0, 1.0, 10.0, 9, 9));
  // Past it: on only while quiet windows are missing, up to the stretch.
  EXPECT_FALSE(measure_more(10.0, 1.0, 10.0, 9, 9));
  EXPECT_TRUE(measure_more(10.0, 1.0, 10.0, 3, 9));
  EXPECT_FALSE(measure_more(kMaxStretch * 10.0, 1.0, 10.0, 3, 9));
}

TEST(Gate, TripsOnACorruptedExpectedRow) {
  const auto models = served_models();
  mcmc::engine::VerdictEngine engine;
  const auto tests = mcmc::litmus::full_catalog();
  ASSERT_FALSE(tests.empty());
  const auto verdicts = engine.run_matrix(models, {tests.front()});
  const auto expected = column_words(verdicts, 0);

  mcmc::serve::VerdictRowWire row;
  row.source = mcmc::serve::VerdictSource::kStore;
  row.num_models = static_cast<std::uint32_t>(models.size());
  row.valid.assign(expected.size(), ~0ULL);
  row.bits = expected;
  EXPECT_TRUE(row_matches(row, expected, models.size(), true));

  auto corrupted = expected;
  corrupted[0] ^= 1ULL << 7;
  EXPECT_FALSE(row_matches(row, corrupted, models.size(), true));

  // A warm-store request the engine had to compute also fails.
  row.source = mcmc::serve::VerdictSource::kComputed;
  EXPECT_FALSE(row_matches(row, expected, models.size(), true));
  EXPECT_TRUE(row_matches(row, expected, models.size(), false));

  // So does a row with an unanswered model.
  row.valid[0] &= ~1ULL;
  EXPECT_FALSE(row_matches(row, expected, models.size(), false));
}

}  // namespace
}  // namespace perfbench
