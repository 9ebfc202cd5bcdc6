#include "serve_workload.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <map>
#include <memory>
#include <thread>
#include <unordered_set>
#include <vector>

#include "engine/verdict_engine.h"
#include "enumeration/exhaustive.h"
#include "enumeration/shapes.h"
#include "explore/distinguish.h"
#include "gate.h"
#include "host.h"
#include "layers.h"
#include "litmus/parser.h"
#include "loadgen.h"
#include "serve/client.h"
#include "stats.h"
#include "store/verdict_store.h"
#include "util/hash128.h"
#include "util/rng.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using mcmc::litmus::LitmusTest;

constexpr const char* kStoreFile = "warm.store";
constexpr const char* kCorpusFile = "classes.txt";
constexpr long long kFixtureClasses = 445565;

/// Stored classes a run draws its requests from: a seeded sample of the
/// whole store, large enough that the rows it touches spread over tens
/// of megabytes of the daemon's index (far beyond any core's L2).
constexpr std::size_t kReadPool = 65536;
/// Distinct with-dep tests available to serve_mixed per run: several
/// times what a run sends at serve_mixed's capacity, so every novel
/// check of a run is a store miss.
constexpr std::size_t kNovelPool = 32768;
/// Every kNovelEvery-th serve_mixed request checks a novel test (4%).
/// A fixed stride, not a random share, so that the store commits (one
/// per kSaveEvery novel rows) land at the same point of every ladder
/// rung for every seed.
constexpr std::uint64_t kNovelEvery = 25;
/// Daemon starts per run; setup_s is their median.
constexpr int kDaemonStarts = 7;
/// Commit the store after this many new rows (litmusd's default).
constexpr int kSaveEvery = 256;
/// Ladder rungs hold a whole number of these request blocks and last at
/// least kMinRungSeconds.  In serve_mixed each block adds exactly
/// kSaveEvery novel rows, so it holds one store commit.
constexpr std::size_t kRungBlock = kSaveEvery * kNovelEvery;
constexpr double kMinRungSeconds = 0.5;

/// Offered rate of the measured phase (well below saturation: about a
/// sixteenth of serve_read's capacity on a 4-core host and a fifth of
/// serve_mixed's), the share of a traced run it takes (the capacity
/// ladder takes the rest), the ladder's first rung and its coarse step.
constexpr double kFixedRate = 5000.0;
constexpr double kTracedFixedShare = 0.4;
constexpr std::size_t kMinWindows = 4;
constexpr double kLadderStart = 12000.0;
constexpr double kCoarseStep = 1.5;
/// The ladder bisects between the highest passing and the lowest
/// failing rate until they are this close, then steps this far above
/// the highest pass.
constexpr double kBisectRatio = 1.02;

/// p99 limit of a ladder rung.  serve_read's absorbs the millisecond
/// wake-up stalls of a shared virtual host.  In serve_mixed a store
/// commit (a full rewrite of the ~21 MB store, ~0.2 s) holds the
/// batcher, and every connection waiting on a novel check with it, so
/// its limit must absorb one commit per rung.
double p99_limit_s(bool mixed) { return mixed ? 0.500 : 0.020; }
/// A rung has no growing backlog when, over its last tenth, the
/// generator sends on time (median lag at most this): whatever stall
/// the rung held has been worked off before it ends.
constexpr double kDrainedLag = 0.002;
/// ... and every lane kept pace with the schedule: the achieved reply
/// rate is at least this share of the offered rate.
constexpr double kKeptUp = 0.97;

std::string to_line(std::string text) {
  std::replace(text.begin(), text.end(), '\n', '|');
  return text;
}

std::string from_line(std::string line) {
  std::replace(line.begin(), line.end(), '|', '\n');
  return line;
}

/// A seeded with-dep test: two random thread shapes of the
/// dependency-extended space, at least one carrying a dependency, and a
/// random outcome over each read's domain (materialized the way
/// ExhaustiveStream builds its programs).  A dependency makes the class
/// absent from the no-dep warm store.
LitmusTest random_dep_test(const std::vector<mcmc::enumeration::shapes::ThreadShape>& shapes,
                           mcmc::util::Rng& rng, std::size_t index) {
  namespace sh = mcmc::enumeration::shapes;
  const auto has_dep = [](const sh::ThreadShape& s) {
    return std::any_of(s.begin(), s.end(), [](const sh::Access& a) {
      return a.sep == sh::Sep::DataDep || a.sep == sh::Sep::CtrlDep;
    });
  };
  for (;;) {
    const auto& a = shapes[rng.below(shapes.size())];
    const auto& b = shapes[rng.below(shapes.size())];
    if (!has_dep(a) && !has_dep(b)) continue;
    std::map<int, int> values;
    mcmc::core::Reg next_reg = 0;
    std::vector<mcmc::core::Thread> threads;
    threads.push_back(sh::materialize(a, values, next_reg));
    threads.push_back(sh::materialize(b, values, next_reg));
    mcmc::core::Program program(std::move(threads));
    mcmc::core::Outcome outcome;
    for (const auto& thread : program.threads()) {
      sh::for_each_read(thread, [&](mcmc::core::Reg dst, int loc) {
        const auto written = values.find(loc);
        const int domain = 1 + (written == values.end() ? 0 : written->second);
        outcome.require(dst, static_cast<int>(rng.below(
                                 static_cast<std::uint64_t>(domain))));
      });
    }
    return LitmusTest("novel" + std::to_string(index), std::move(program),
                      std::move(outcome));
  }
}

/// One request target: a test, its litmus text, fingerprint and the
/// in-process verdict row every reply must equal.
struct Target {
  std::string text;
  mcmc::util::Key128 key;
  std::vector<std::uint64_t> expected;
};

enum class Kind { kProbe, kCheckStored, kCheckNovel };

/// The seeded traffic plan: request i's kind and target are a pure
/// function of (seed, i).
class Plan {
 public:
  Plan(std::uint64_t seed, bool mixed, std::size_t stored, std::size_t novel)
      : seed_(seed), mixed_(mixed), stored_(stored), novel_(novel) {}

  [[nodiscard]] Kind kind(std::uint64_t i) const {
    if (mixed_ && i % kNovelEvery == 0) return Kind::kCheckNovel;
    return draw(i) % 2 == 0 ? Kind::kProbe : Kind::kCheckStored;
  }
  [[nodiscard]] std::size_t stored_target(std::uint64_t i) const {
    return static_cast<std::size_t>((draw(i) >> 20) % stored_);
  }
  /// Novel tests are used in order, each once; past the end of the pool
  /// (a run far faster than the pool was sized for) they repeat, and
  /// `wrapped()` reports it.
  [[nodiscard]] std::size_t take_novel() {
    return next_novel_.fetch_add(1, std::memory_order_relaxed) % novel_;
  }
  [[nodiscard]] bool wrapped() const {
    return next_novel_.load(std::memory_order_relaxed) > novel_;
  }

 private:
  [[nodiscard]] std::uint64_t draw(std::uint64_t i) const {
    return mcmc::util::mix64(seed_ * 0x9e3779b97f4a7c15ULL + i);
  }
  std::uint64_t seed_;
  bool mixed_;
  std::size_t stored_;
  std::size_t novel_;
  std::atomic<std::size_t> next_novel_{0};
};

/// Splits the CPUs this process may use into two disjoint halves: the
/// generator runs on the first, litmusd on the second, so the two never
/// compete for a core and the scheduler cannot place them differently
/// from one run to the next.  Both halves are the full set on a
/// single-CPU host.
struct CpuSplit {
  cpu_set_t generator;
  cpu_set_t daemon;
  std::string describe;
};

CpuSplit split_cpus() {
  CpuSplit split;
  cpu_set_t all;
  CPU_ZERO(&all);
  if (sched_getaffinity(0, sizeof all, &all) != 0) CPU_SET(0, &all);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &all)) cpus.push_back(cpu);
  }
  CPU_ZERO(&split.generator);
  CPU_ZERO(&split.daemon);
  const std::size_t half = cpus.size() / 2;
  std::string gen;
  std::string dae;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    const bool to_generator = cpus.size() < 2 || i < half;
    const bool to_daemon = cpus.size() < 2 || i >= half;
    if (to_generator) {
      CPU_SET(cpus[i], &split.generator);
      gen += (gen.empty() ? "" : ",") + std::to_string(cpus[i]);
    }
    if (to_daemon) {
      CPU_SET(cpus[i], &split.daemon);
      dae += (dae.empty() ? "" : ",") + std::to_string(cpus[i]);
    }
  }
  split.describe = "generator " + gen + " / litmusd " + dae;
  return split;
}

/// A litmusd child process, confined to `cpus`; the destructor kills
/// and reaps it.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         const std::string& log, const cpu_set_t& cpus) {
    std::vector<std::string> argv_s{binary};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (auto& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      // Child: only async-signal-safe calls until exec.
      (void)sched_setaffinity(0, sizeof cpus, &cpus);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
  }
  ~Daemon() { (void)stop(SIGKILL); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Sends `sig` and waits; true iff the daemon exited with status 0.
  bool stop(int sig) {
    if (pid_ <= 0) return false;
    ::kill(pid_, sig);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  /// CPU time litmusd's threads have run so far, in seconds, summed
  /// from each thread's scheduler statistics (nanosecond resolution; a
  /// thread that has exited no longer counts); 0 if unreadable.
  [[nodiscard]] double cpu_seconds() const {
    double ns = 0.0;
    std::error_code ec;
    const std::string tasks = "/proc/" + std::to_string(pid_) + "/task";
    for (const auto& task : fs::directory_iterator(tasks, ec)) {
      std::ifstream schedstat(task.path() / "schedstat");
      double run_ns = 0.0;
      if (schedstat >> run_ns) ns += run_ns;
    }
    return ns * 1e-9;
  }

  /// litmusd's peak resident set (VmHWM) in MB; 0 if unreadable.
  [[nodiscard]] double peak_rss_mb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;
      }
    }
    return 0.0;
  }

 private:
  pid_t pid_ = -1;
};

/// Connects to `socket` until the daemon answers kModels; returns the
/// seconds from `t0` to that first successful reply, or a negative
/// value on timeout.
double await_first_reply(const std::string& socket, Clock::time_point t0,
                         std::size_t num_models) {
  for (;;) {
    mcmc::serve::Client client;
    std::vector<std::string> names;
    if (client.connect_unix(socket) && client.models(names)) {
      return names.size() == num_models ? seconds_between(t0, Clock::now())
                                        : -1.0;
    }
    if (seconds_between(t0, Clock::now()) > 60.0) return -1.0;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

struct Rung {
  double rate = 0.0;
  double achieved = 0.0;
  double p99_s = 0.0;
  bool pass = false;
};

}  // namespace

bool build_fixture(const std::string& dir, int threads, std::string& error) {
  const auto models = served_models();
  mcmc::store::VerdictStore store(mcmc::explore::harness_store_meta(models));
  mcmc::engine::EngineOptions options;
  options.num_threads = threads;
  options.cache_enabled = false;
  mcmc::engine::VerdictEngine engine(options);
  mcmc::enumeration::ExhaustiveStream stream{
      mcmc::enumeration::ExhaustiveOptions{}};
  mcmc::engine::StreamOptions stream_options;
  stream_options.verdict_store = &store;
  fs::create_directories(dir);
  const std::string corpus_tmp = dir + "/" + kCorpusFile + ".tmp";
  std::ofstream corpus(corpus_tmp);
  long long classes = 0;
  const auto stats = engine.run_stream(
      models, stream,
      [&](const std::vector<LitmusTest>& novel, const mcmc::engine::BitMatrix&,
          const mcmc::engine::StreamChunkStats&) {
        for (const auto& test : novel) {
          corpus << to_line(mcmc::litmus::write_test(test)) << '\n';
          ++classes;
        }
      },
      stream_options);
  corpus.close();
  if (!corpus || classes != kFixtureClasses ||
      static_cast<long long>(store.size()) != kFixtureClasses) {
    error = "fixture has " + std::to_string(classes) + " classes and " +
            std::to_string(store.size()) + " store rows, want " +
            std::to_string(kFixtureClasses);
    return false;
  }
  if (!store.save(dir + "/" + kStoreFile, nullptr, &error)) return false;
  fs::rename(corpus_tmp, dir + "/" + kCorpusFile);
  std::printf("fixture: %lld classes from %zu tests in %.1f s\n", classes,
              stats.tests_streamed, stats.wall_seconds);
  return true;
}

void run_serve(const ServeConfig& config, RunResult& out, Tracer& tracer) {
  const auto models = served_models();
  const std::size_t num_models = models.size();
  const std::string store_src = config.fixture_dir + "/" + kStoreFile;

  // ---- Inputs: a seeded sample of the stored classes and, for
  // serve_mixed, seeded with-dep tests absent from the store. ----
  std::vector<std::string> lines;
  {
    std::ifstream corpus(config.fixture_dir + "/" + kCorpusFile);
    std::string line;
    while (std::getline(corpus, line)) lines.push_back(std::move(line));
  }
  if (static_cast<long long>(lines.size()) != kFixtureClasses) {
    out.fail_gate("fixture corpus has " + std::to_string(lines.size()) +
                  " classes");
    return;
  }
  mcmc::util::Rng rng(config.seed);
  std::vector<std::uint32_t> order(lines.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  std::vector<LitmusTest> tests;
  for (std::size_t i = 0; i < kReadPool; ++i) {
    std::swap(order[i], order[i + rng.below(order.size() - i)]);
    tests.push_back(mcmc::litmus::parse_test(from_line(lines[order[i]])));
  }
  lines.clear();
  lines.shrink_to_fit();
  std::size_t stored = tests.size();
  if (config.mixed) {
    mcmc::enumeration::NaiveOptions bounds;
    bounds.deps = true;
    const auto shapes = mcmc::enumeration::shapes::all_thread_shapes(bounds);
    std::unordered_set<mcmc::util::Key128, mcmc::util::Key128Hash> seen;
    mcmc::litmus::KeyScratch scratch;
    std::size_t made = 0;
    while (tests.size() - stored < kNovelPool) {
      LitmusTest test = random_dep_test(shapes, rng, made++);
      if (seen.insert(mcmc::litmus::canonical_fingerprint(test, scratch))
              .second) {
        tests.push_back(std::move(test));
      }
    }
  }
  std::vector<Target> targets(tests.size());
  {
    mcmc::engine::EngineOptions options;
    options.num_threads = config.daemon_threads;
    options.cache_enabled = false;
    mcmc::engine::VerdictEngine engine(options);
    const auto verdicts = engine.run_matrix(models, tests);
    mcmc::litmus::KeyScratch scratch;
    for (std::size_t i = 0; i < tests.size(); ++i) {
      targets[i].text = mcmc::litmus::write_test(tests[i]);
      targets[i].key = mcmc::litmus::canonical_fingerprint(tests[i], scratch);
      targets[i].expected = column_words(verdicts, static_cast<int>(i));
    }
  }
  Plan plan(config.seed, config.mixed, stored, tests.size() - stored);

  // ---- Set-up: litmusd exec to first successful reply, each start on
  // a fresh copy of the warm store; the last daemon stays up. ----
  fs::create_directories(config.work_dir);
  const std::string socket = config.work_dir + "/litmusd.sock";
  const std::string store = config.work_dir + "/" + kStoreFile;
  const std::vector<std::string> args{
      "--socket", socket, "--store", store, "--threads",
      std::to_string(config.daemon_threads), "--save-every",
      std::to_string(kSaveEvery)};
  const CpuSplit cpus = split_cpus();
  out.env["cpu_split"] = cpus.describe;
  // Threads the generator starts from here on inherit its half.
  (void)sched_setaffinity(0, sizeof cpus.generator, &cpus.generator);
  std::unique_ptr<Daemon> daemon;
  std::vector<double> setups;
  for (int start = 0; start < kDaemonStarts; ++start) {
    if (daemon) (void)daemon->stop(SIGKILL);
    std::error_code ec;
    fs::copy_file(store_src, store, fs::copy_options::overwrite_existing, ec);
    fs::remove(socket, ec);
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Daemon>(
        config.litmusd, args, config.work_dir + "/litmusd.log", cpus.daemon);
    const double setup = daemon->pid() > 0
                             ? await_first_reply(socket, t0, num_models)
                             : -1.0;
    if (setup < 0) {
      out.fail_gate("litmusd did not answer (see " + config.work_dir +
                    "/litmusd.log)");
      return;
    }
    tracer.add("serve.daemon_start", 0, tracer.at(t0), setup);
    setups.push_back(setup);
  }

  std::vector<mcmc::serve::Client> clients(
      static_cast<std::size_t>(config.connections));
  for (auto& client : clients) {
    std::string error;
    if (!client.connect_unix(socket, &error)) {
      out.fail_gate("generator cannot connect: " + error);
      return;
    }
  }

  // serve_mixed: the first half of the connections are writers, the
  // only ones that send novel checks, so a store commit holds them alone
  // and the readers keep going, as independent clients would; with more
  // than one writer the batcher has novel tests to coalesce.
  std::vector<int> worker_lanes(clients.size(), 0);
  if (config.mixed) {
    if (clients.size() < 2) {
      out.fail_gate("serve_mixed needs two connections (two cores)");
      return;
    }
    std::fill(worker_lanes.begin(),
              worker_lanes.begin() +
                  static_cast<std::ptrdiff_t>(worker_lanes.size() / 2),
              1);
  }
  std::atomic<long long> wrong{0};
  auto send = [&](int worker, std::size_t i) {
    auto& client = clients[static_cast<std::size_t>(worker)];
    mcmc::serve::VerdictRowWire row;
    bool ok = false;
    bool want_store = true;
    const Target* target = nullptr;
    switch (plan.kind(i)) {
      case Kind::kProbe:
        target = &targets[plan.stored_target(i)];
        ok = client.probe(target->key, row);
        break;
      case Kind::kCheckStored:
        target = &targets[plan.stored_target(i)];
        ok = client.check(target->text, row);
        break;
      case Kind::kCheckNovel:
        target = &targets[stored + plan.take_novel()];
        want_store = false;
        ok = client.check(target->text, row);
        break;
    }
    if (ok && !row_matches(row, target->expected, num_models, want_store)) {
      wrong.fetch_add(1, std::memory_order_relaxed);
      ok = false;
    }
    return ok;
  };

  std::uint64_t request_base = 0;  // request ids across phases
  auto phase = [&](const char* name, double rate, double seconds,
                   bool per_request = false) {
    const auto count = static_cast<std::size_t>(
        std::max(1000.0, std::round(rate * seconds)));
    const Clock::time_point t0 = Clock::now();
    PhaseResult result = run_open_loop(
        rate, count, worker_lanes,
        [&](std::size_t i) {
          return plan.kind(request_base + i) == Kind::kCheckNovel ? 1 : 0;
        },
        [&](int worker, std::size_t i) {
          return send(worker, request_base + i);
        });
    out.attempted += static_cast<long long>(count);
    out.failed += static_cast<long long>(result.failures());
    if (tracer.enabled()) {
      const double base = tracer.at(t0);
      const auto parent = tracer.add(name, 0, base,
                                     seconds_between(t0, Clock::now()));
      // Per-request spans for the latency phase only: the ladder sends
      // far more requests than a trace file should hold.
      for (std::size_t i = 0; per_request && i < result.records.size(); ++i) {
        const auto& r = result.records[i];
        const auto id = static_cast<std::int64_t>(request_base + i);
        tracer.add("serve.generator_wait", 3, base + r.due, r.sent - r.due,
                   parent, id);
        tracer.add("serve.request", 4, base + r.sent, r.done - r.sent, parent,
                   id);
      }
    }
    request_base += count;
    return result;
  };

  // ---- Warm-up, then the measured phase at a fixed offered rate well
  // below saturation, for the run's length (the traced run gives the
  // capacity ladder a share of it).  The phase is a run of windows, one
  // request block each.  Per window: the p50 latency, and the replies
  // per second of litmusd CPU time, the daemon's capacity per core at
  // this traffic mix (a continuous measure, unlike the ladder's
  // saturating search, whose pass/fail threshold flips with the host's
  // load).  The figures are the medians over the quiet windows
  // (stats.h).  Half a block of warm-up puts every window
  // boundary half a block away from a store commit: in serve_mixed each
  // window and ladder rung holds its commit in the middle. ----
  const double block_s = static_cast<double>(kRungBlock) / kFixedRate;
  (void)phase("serve.warmup", kFixedRate, block_s / 2);
  const double measure_s =
      (tracer.enabled() ? kTracedFixedShare : 1.0) * config.seconds;
  const std::size_t want = std::max<std::size_t>(
      kMinWindows, static_cast<std::size_t>(measure_s / block_s));
  const std::uint64_t fixed_base = request_base;
  std::vector<double> lat;
  std::vector<double> lags;
  std::vector<double> window_p50_ms;
  std::vector<double> window_capacity;
  std::vector<double> steal;
  std::size_t quiet = 0;
  double daemon_cpu_s = 0.0;
  const Clock::time_point measure_start = Clock::now();
  while (steal.size() < want ||
         measure_more(seconds_between(measure_start, Clock::now()), block_s,
                      measure_s, quiet, want)) {
    const CpuTicks ticks0 = read_cpu_ticks();
    const double cpu0 = daemon->cpu_seconds();
    const PhaseResult r =
        phase("serve.window", kFixedRate, block_s, /*per_request=*/true);
    const double cpu = daemon->cpu_seconds() - cpu0;
    steal.push_back(steal_share(ticks0, read_cpu_ticks()));
    quiet += steal.back() <= kQuietSteal ? 1 : 0;
    daemon_cpu_s += cpu;
    const auto window_lat = r.latencies();
    window_p50_ms.push_back(median(window_lat) * 1e3);
    window_capacity.push_back(
        cpu > 0.0 ? static_cast<double>(r.records.size() - r.failures()) / cpu
                  : 0.0);
    lat.insert(lat.end(), window_lat.begin(), window_lat.end());
    const auto window_lags = r.lags();
    lags.insert(lags.end(), window_lags.begin(), window_lags.end());
  }
  const auto kept = quiet_windows(steal, want);
  const auto fixed_p99 = percentile(lat, 0.99);
  if (!fixed_p99.reportable) out.fail_gate("measured phase too short for p99");
  {
    // Per request kind: probe, stored check, novel check.
    std::vector<double> by_kind[3];
    for (std::size_t i = 0; i < lat.size(); ++i) {
      by_kind[static_cast<int>(plan.kind(fixed_base + i))].push_back(lat[i]);
    }
    for (const auto& v : by_kind) {
      out.raw["fixed_p50_ms_by_kind"].push_back(median(v) * 1e3);
      out.raw["fixed_p99_ms_by_kind"].push_back(percentile(v, 0.99).value *
                                                1e3);
    }
  }

  // ---- Capacity ladder (traced run only), for the rest of the run:
  // coarse steps until a rung misses the p99 limit, ends with a backlog
  // or falls behind; then, until the time is used, probe between the
  // highest passing and the lowest failing rate (bisection while they
  // are more than kBisectRatio apart, then one step above the highest
  // pass).  max_rps is the achieved reply rate of the highest passing
  // rung. ----
  const double limit = p99_limit_s(config.mixed);
  const Clock::time_point ladder_start = Clock::now();
  const double ladder_budget =
      tracer.enabled() ? (1.0 - kTracedFixedShare) * config.seconds : 0.0;
  auto rung = [&](double rate) {
    const double blocks =
        std::ceil(rate * kMinRungSeconds / static_cast<double>(kRungBlock));
    const PhaseResult r =
        phase("serve.rung", rate,
              blocks * static_cast<double>(kRungBlock) / rate);
    Rung out_rung;
    out_rung.rate = rate;
    out_rung.achieved = r.achieved_rate();
    out_rung.p99_s = percentile(r.latencies(), 0.99).value;
    const auto rung_lags = r.lags();
    const double end_lag = median(std::vector<double>(
        rung_lags.end() - static_cast<std::ptrdiff_t>(rung_lags.size() / 10),
        rung_lags.end()));
    out_rung.pass = r.failures() == 0 && out_rung.p99_s <= limit &&
                    end_lag <= kDrainedLag &&
                    out_rung.achieved >= kKeptUp * rate;
    out.raw["ladder_rate"].push_back(rate);
    out.raw["ladder_p99_ms"].push_back(out_rung.p99_s * 1e3);
    out.raw["ladder_end_lag_ms"].push_back(end_lag * 1e3);
    return out_rung;
  };
  auto time_left = [&] {
    return ladder_budget - seconds_between(ladder_start, Clock::now());
  };
  Rung best;
  double fail_rate = 0.0;
  for (double rate = kLadderStart; time_left() > 0.0; rate *= kCoarseStep) {
    const Rung r = rung(rate);
    if (!r.pass) {
      fail_rate = rate;
      break;
    }
    best = r;
  }
  if (best.pass && fail_rate > 0.0) {
    double hi = fail_rate;
    while (time_left() > 0.0) {
      const double rate = hi / best.rate > kBisectRatio
                              ? std::sqrt(best.rate * hi)
                              : best.rate * kBisectRatio;
      const Rung r = rung(rate);
      if (r.pass) {
        best = r;
        hi = std::max(hi, rate * kBisectRatio);
      } else {
        hi = rate;
      }
    }
  }
  if (tracer.enabled() && !best.pass) {
    out.fail_gate("no ladder rung met the p99 limit");
  }
  if (tracer.enabled() && fail_rate == 0.0) {
    out.fail_gate("the ladder never reached saturation");
  }

  // ---- Server-side counters, memory, and a clean drain. ----
  std::vector<std::uint64_t> stats;
  if (!clients.front().stats(stats) ||
      stats.size() < mcmc::serve::kStatFieldCount) {
    out.fail_gate("kStats failed");
    stats.assign(mcmc::serve::kStatFieldCount, 0);
  }
  const double rss = daemon->peak_rss_mb();
  clients.clear();
  if (!daemon->stop(SIGTERM)) out.fail_gate("litmusd did not shut down cleanly");
  if (plan.wrapped()) {
    // Repeated novel tests are store hits: the run stopped measuring
    // appends and commits.  Enlarge kNovelPool.
    out.fail_gate("serve_mixed used up its novel-test pool");
  }
  if (wrong.load() != 0) {
    out.fail_gate(std::to_string(wrong.load()) +
                  " replies differ from the in-process verdict rows");
  }

  out.metrics["setup_s"] = {median(setups), "s"};
  out.metrics["p50_ms"] = {median(pick(window_p50_ms, kept)), "ms"};
  // Every reply answers one canonical class.
  out.metrics["classes_per_s"] = {median(pick(window_capacity, kept)), "1/s"};
  out.metrics["peak_rss_mb"] = {rss, "MB"};
  out.raw["setup_s"] = setups;
  out.raw["window_p50_ms"] = window_p50_ms;
  out.raw["window_classes_per_s"] = window_capacity;
  out.raw["window_steal"] = steal;
  out.env["daemon_cpu_s"] = std::to_string(daemon_cpu_s);
  out.env["fixed_rate_rps"] = std::to_string(kFixedRate);
  out.env["fixed_rate_samples"] = std::to_string(lat.size());
  out.env["windows"] = std::to_string(steal.size());
  out.env["quiet_windows"] = std::to_string(quiet);
  out.env["reported_windows"] = std::to_string(kept.size());
  out.env["p99_limit_ms"] = std::to_string(limit * 1e3);
  out.env["novel_every"] = config.mixed ? std::to_string(kNovelEvery) : "0";
  out.env["read_pool"] = std::to_string(stored);

  if (!tracer.enabled()) return;
  using namespace mcmc::serve;
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double asked =
      static_cast<double>(stats[kStatProbes] + stats[kStatChecks]);
  out.layers["serve.server_p50_us"] = {
      static_cast<double>(stats[kStatLatencyP50Ns]) / 1e3, "us"};
  out.layers["serve.server_p99_us"] = {
      static_cast<double>(stats[kStatLatencyP99Ns]) / 1e3, "us"};
  out.layers["serve.store_served_ratio"] = {
      ratio(static_cast<double>(stats[kStatProbeStoreHits] +
                                stats[kStatCheckStoreHits]),
            asked),
      "ratio"};
  out.layers["serve.coalesced_width"] = {
      ratio(static_cast<double>(stats[kStatCheckComputed]),
            static_cast<double>(stats[kStatBatchesCoalesced])),
      "tests"};
  out.layers["serve.max_coalesced"] = {
      static_cast<double>(stats[kStatMaxCoalesced]), "tests"};
  out.layers["serve.queue_rejected"] = {
      static_cast<double>(stats[kStatQueueRejected]), "count"};
  out.layers["serve.store_saves"] = {
      static_cast<double>(stats[kStatStoreSaves]), "count"};
  out.layers["serve.generator_lag_ms"] = {median(lags) * 1e3, "ms"};
  out.layers["serve.client_p99_ms"] = {fixed_p99.value * 1e3, "ms"};
  out.layers["serve.max_rps"] = {best.achieved, "1/s"};

  LayerInputs in;
  in.models = models;
  in.scratch_dir = config.work_dir;
  in.store_path = store_src;
  for (std::size_t i = 0; i < std::min<std::size_t>(stored, 4096); ++i) {
    in.store_keys.push_back(targets[i].key);
  }
  tests.erase(tests.begin() + static_cast<std::ptrdiff_t>(
                                std::min<std::size_t>(stored, 2048)),
              tests.end());
  in.sample = std::move(tests);
  measure_layers(in, out, tracer);
}

}  // namespace perfbench
