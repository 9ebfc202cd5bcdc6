#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The first call builds the repository
and the harness in Release mode under .bench_build/ (or
$CARGO_TARGET_DIR) and, for the serve workloads, the warm-store fixture;
later calls reuse both.  The run prints a metrics table, then, as the
last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics untraced (--trace 0), the
per-layer metrics traced (--trace 1).  The full record of every run
(raw samples, environment, gate notes) is kept under
<build>/perfbench/results/<build digest>/ for perfbench/audit.py.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
WORKLOADS = ("sweep", "serve_read", "serve_mixed")
SERVE_WORKLOADS = ("serve_read", "serve_mixed")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 170
FIXTURE_TIMEOUT_S = 600


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / target).resolve() / "perfbench"


def check_spec(spec):
    """Validate BENCHMARK.json's metric and workload grammar."""
    names = set()
    for w in spec["workloads"]:
        if not NAME_RE.match(w["name"]) or w["name"] in names:
            raise BenchError(f"bad or repeated workload name {w['name']!r}")
        names.add(w["name"])
        if "\n" in w["why"] or len(w["why"]) > 200:
            raise BenchError(f"workload {w['name']}: 'why' must be one short line")
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            if not NAME_RE.match(m["name"]) or m["name"] in names:
                raise BenchError(f"bad or repeated metric name {m['name']!r}")
            names.add(m["name"])
            if not UNIT_RE.match(m["unit"]):
                raise BenchError(f"metric {m['name']}: bad unit {m['unit']!r}")
            if m["better"] not in ("lower", "higher"):
                raise BenchError(f"metric {m['name']}: better must be lower/higher")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            raise BenchError(f"metric {m['name']}: bound must be in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise BenchError("end_to_end must hold setup_s in s, lower is better")


def load_spec():
    if not SPEC_FILE.is_file():
        raise BenchError(f"{SPEC_FILE} is missing")
    spec = json.loads(SPEC_FILE.read_text())
    check_spec(spec)
    return spec


def cmake_cache(build):
    cache = {}
    path = build / "CMakeCache.txt"
    if path.is_file():
        for line in path.read_text(errors="replace").splitlines():
            m = re.match(r"^([A-Za-z0-9_]+):[A-Z]+=(.*)$", line)
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def build(build):
    """Configure (Release) and build the harness, litmusd and the tests."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no repository sources under {ROOT}")
    for tool in ("cmake",):
        if shutil.which(tool) is None:
            raise BenchError(f"{tool} is not installed")
    build.mkdir(parents=True, exist_ok=True)
    log = build / "build.log"
    configure = ["cmake", "-S", str(HERE), "-B", str(build),
                 "-DCMAKE_BUILD_TYPE=Release", "-DMCMC_SANITIZE="]
    if not (build / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log, "w") as out:
        for cmd in (configure, ["cmake", "--build", str(build), "-j", jobs]):
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    cache = cmake_cache(build)
    if cache.get("CMAKE_BUILD_TYPE") != "Release" or cache.get("MCMC_SANITIZE"):
        raise BenchError("refusing to measure a non-Release or sanitizer build "
                         f"(type={cache.get('CMAKE_BUILD_TYPE')!r}, "
                         f"sanitize={cache.get('MCMC_SANITIZE')!r})")
    return cache


def rel(path):
    """`path` relative to the checkout root, where the harness runs: the
    daemon's Unix socket lives under it, and socket paths are short."""
    return os.path.relpath(path, ROOT)


def run_group(cmd, timeout):
    """Run cmd in its own process group and return (code, stdout, stderr).
    On timeout the whole group is killed, the harness's litmusd with it,
    and reaped before the error is raised."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{Path(cmd[0]).name} {cmd[1]} timed out after "
                         f"{timeout} s")
    return proc.returncode, out, err


def file_digest(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def source_digest():
    files = [ROOT / "CMakeLists.txt"]
    files += sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    return file_digest(files)


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def binaries_digest(build):
    """Identity of the measured build: the harness and the daemon."""
    return file_digest([build / "perfbench", build / "repo" / "litmusd"])


def results_dir(build):
    """Run records of this exact build (records of older builds are
    never mixed into an audit or an overhead baseline)."""
    return build / "results" / binaries_digest(build)


def ensure_fixture(build, work):
    """(Re)build the warm-store fixture when the binaries changed."""
    binary = build / "perfbench"
    stamp_value = binaries_digest(build)
    fixture = work / "fixture"
    stamp = fixture / "stamp"
    if stamp.is_file() and stamp.read_text() == stamp_value:
        return
    shutil.rmtree(fixture, ignore_errors=True)
    started = time.monotonic()
    code, _, err = run_group([str(binary), "fixture", "--work", rel(fixture)],
                             FIXTURE_TIMEOUT_S)
    if code != 0:
        raise BenchError("fixture build failed:\n" + err[-2000:])
    stamp.write_text(stamp_value)
    # Flush the fixture's writes now, so that their write-back does not
    # slow the store commits the first measured run makes.
    os.sync()
    print(f"built the warm-store fixture in {time.monotonic() - started:.1f} s",
          file=sys.stderr)


def run_binary(build, work, traces, args):
    cmd = [str(build / "perfbench"), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", rel(work)]
    if args.trace:
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    code, out, err = run_group(cmd, RUN_TIMEOUT_S)
    if code != 0:
        raise BenchError(f"perfbench exited {code}:\n" + err[-2000:])
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("perfbench printed no result")
    return json.loads(lines[-1])


def select_metrics(spec, record, traced):
    """The metrics the result line carries, checked against the spec."""
    group = "per_layer" if traced else "end_to_end"
    source = record["layers"] if traced else record["metrics"]
    metrics, idle = {}, []
    for m in spec[group]:
        got = source.get(m["name"])
        if got is None:
            if not traced:
                raise BenchError(f"end-to-end metric {m['name']} not measured")
            # A layer this workload does not exercise reports 0.
            got = {"value": 0.0, "unit": m["unit"]}
            idle.append(m["name"])
        value = got["value"]
        if value is None or not math.isfinite(value):
            raise BenchError(f"metric {m['name']} is not a finite number")
        if got["unit"] != m["unit"]:
            raise BenchError(f"metric {m['name']}: unit {got['unit']} "
                             f"differs from the spec's {m['unit']}")
        if not traced and value <= 0:
            record["gate_failures"].append(f"{m['name']} is {value}, not > 0")
            record["correct"] = False
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, idle


def recorded(results, workload, traced):
    out = []
    for path in sorted(results.glob(f"{workload}-*.json")):
        rec = json.loads(path.read_text())
        if rec["env"].get("trace") == ("1" if traced else "0") and rec["correct"]:
            out.append(rec)
    return out


def tracing_overhead(results, record, args, build, work, traces):
    """Traced minus untraced p50_ms (the sweep's pass time, the serve
    request latency), as a percentage of the untraced runs' median."""
    untraced = [r for r in recorded(results, args.workload, False)
                if r["env"].get("run_seconds") == str(args.seconds)]
    if not untraced:
        plain = argparse.Namespace(**{**vars(args), "trace": 0})
        rec = run_binary(build, work, traces, plain)
        save(results, plain, rec)
        untraced = [rec]
    base = statistics.median(r["metrics"]["p50_ms"]["value"] for r in untraced)
    now = record["metrics"]["p50_ms"]["value"]
    return 100.0 * (now - base) / base, len(untraced)


def save(results, args, record):
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"workload {args.workload} is not in BENCHMARK.json")
        root = build_root()
        cache = build(root)
        work = root / "work"
        results = results_dir(root)
        traces = root / "traces"
        if args.workload in SERVE_WORKLOADS:
            ensure_fixture(root, work)
        record = run_binary(root, work, traces, args)
        record["env"].update({
            "commit": commit(),
            "source_digest": source_digest(),
            "cxx_compiler": cache.get("CMAKE_CXX_COMPILER", "?"),
            "cmake_build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
            "run_seconds": str(args.seconds),
        })
        traced = bool(args.trace)
        if traced:
            overhead, base_runs = tracing_overhead(results, record, args, root,
                                                   work, traces)
            record["layers"]["trace.overhead_pct"] = {"value": overhead,
                                                      "unit": "%"}
            record["env"]["overhead_untraced_runs"] = str(base_runs)
        metrics, idle = select_metrics(spec, record, traced)
        record["env"]["idle_layers"] = ",".join(idle)
        path = save(results, args, record)
    except (BenchError, OSError, json.JSONDecodeError, KeyError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    env = record["env"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}  nproc {env.get('nproc')}"
          f"  engine threads {env.get('engine_threads')}"
          f"  connections {env.get('connections', '-')}"
          f"  litmusd threads {env.get('litmusd_threads', '-')}")
    print(f"build {env['cmake_build_type']}  compiler {env['cxx_compiler']} "
          f"{env.get('compiler')}  commit {env['commit']}"
          f"  source {env['source_digest']}")
    for name, m in metrics.items():
        note = "  (idle in this workload)" if name in idle else ""
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}{note}")
    gate = "passed" if record["correct"] else "FAILED: " + "; ".join(
        record["gate_failures"])
    print(f"correctness gate {gate}; record {path}")
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
