// perfbench: one run of one benchmark workload, or the serve fixture.
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --work DIR [--trace-file FILE]
//   perfbench fixture --work DIR
//
// Prints one JSON line (see result.h) as the last line of stdout.
// perfbench/run.py builds this binary and drives it; see
// perfbench/README.md.
#include <cstdio>
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "host.h"
#include "result.h"
#include "serve_workload.h"
#include "sweep_workload.h"
#include "trace.h"

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

int usage() {
  std::fprintf(stderr,
               "usage: perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --work DIR [--trace-file FILE]\n"
               "       perfbench fixture --work DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::string workload;
  std::string work;
  std::string trace_file;
  unsigned long long seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--work") {
      work = value;
    } else if (arg == "--trace-file") {
      trace_file = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage();
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0.0)) return usage();
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage();
      }
      trace = value[0] == '1';
    } else {
      return usage();
    }
  }
  if (work.empty()) return usage();

  // Timings from a debug or sanitizer build measure the instrumentation,
  // not the program: refuse to report them.
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release" ||
      std::string(PERFBENCH_SANITIZE).size() != 0 || kSanitized) {
    std::fprintf(stderr,
                 "perfbench: refusing to run a '%s' build (sanitize='%s'); "
                 "build Release without sanitizers\n",
                 PERFBENCH_BUILD_TYPE, PERFBENCH_SANITIZE);
    return 3;
  }
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  if (mode == "fixture") {
    std::string error;
    if (!build_fixture(work, nproc, error)) {
      std::fprintf(stderr, "perfbench: fixture failed: %s\n", error.c_str());
      return 1;
    }
    return 0;
  }
  if (mode != "run") return usage();

  RunResult result;
  result.env["workload"] = workload;
  result.env["seed"] = std::to_string(seed);
  result.env["nproc"] = std::to_string(nproc);
  result.env["compiler"] = __VERSION__;
  result.env["build_type"] = PERFBENCH_BUILD_TYPE;
  result.env["trace"] = trace ? "1" : "0";
  Tracer tracer(trace);
  const CpuTicks ticks0 = read_cpu_ticks();
  if (workload == "sweep") {
    SweepConfig config;
    config.seconds = seconds;
    config.seed = seed;
    config.scratch_dir = work;
    run_sweep(config, result, tracer);
  } else if (workload == "serve_read" || workload == "serve_mixed") {
    ServeConfig config;
    config.mixed = workload == "serve_mixed";
    config.seconds = seconds;
    config.seed = seed;
    config.connections = nproc;
    config.daemon_threads = nproc;
    config.litmusd = PERFBENCH_LITMUSD;
    config.fixture_dir = work + "/fixture";
    config.work_dir = work + "/serve";
    result.env["connections"] = std::to_string(config.connections);
    result.env["litmusd_threads"] = std::to_string(config.daemon_threads);
    result.env["engine_threads"] = std::to_string(config.daemon_threads);
    run_serve(config, result, tracer);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  result.env["host_steal_pct"] =
      std::to_string(100.0 * steal_share(ticks0, read_cpu_ticks()));
  if (trace) {
    if (trace_file.empty() || !tracer.write_chrome_json(trace_file)) {
      result.fail_gate("cannot write the trace file '" + trace_file + "'");
    }
    for (const auto& [name, self] : tracer.self_times()) {
      result.raw["self_s." + name].push_back(self);
    }
    result.env["trace_spans"] = std::to_string(tracer.size());
  }
  std::printf("%s\n", to_json(result).c_str());
  return 0;
}
