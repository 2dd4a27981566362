#!/usr/bin/env python3
"""Benchmark runner for the cdbp repository (see benchsuite/README.md).

Builds the library, the daemon and the bench_suite binary from this
checkout, generates each workload's input from its seed, runs one workload
per process and prints every metric with its unit. The last line of a
single-workload run is one JSON object: correct, attempted, failed, metrics.

  run.py --workload W --seed N --seconds S --trace 0|1   one run
  run.py --all [--seed N] [--seconds S] [--trace] [--sets K] [--runs R] [--out FILE]
  run.py --spread [--seeds N] [--sets K] [--seconds S] [--out FILE]
  run.py --ab PARENT_BUILD CHANGE_BUILD [--pairs N] [--seconds S]
  run.py --smoke | --self-test | --build-only

Exit status: 0 when every run is correct, 1 when a correctness check
fails, 2 when the benchmark cannot run (no sources, build failure).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["replay-csv", "dense-batch", "sharded-dense", "serve-open"]
INPUT_CACHE_FILES = 8
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 900


class BenchError(Exception):
    """The benchmark cannot run here (exit status 2)."""


# ---------------------------------------------------------------------------
# Build


def default_build_dir(args=None):
    if args is not None and args.build_dir:
        return Path(args.build_dir).resolve()
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def check_sources():
    for required in ("CMakeLists.txt", "src/CMakeLists.txt", "examples/cdbp_served.cpp"):
        if not (ROOT / required).is_file():
            raise BenchError(f"{ROOT / required} is missing: run from a full checkout")


def build(build_dir):
    """Configures (once) and builds bench_suite plus cdbp_served."""
    check_sources()
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "bench_suite",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "a") as log:
        for cmd in steps:
            if shutil.which(cmd[0]) is None:
                raise BenchError(f"{cmd[0]} not found")
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                 timeout=BUILD_TIMEOUT_S)
            if rc != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    binaries(build_dir)


def binaries(build_dir):
    suite = build_dir / "bench_suite"
    served = build_dir / "cdbp" / "examples" / "cdbp_served"
    for path in (suite, served):
        if not path.is_file():
            raise BenchError(f"{path} was not built")
    return suite, served


def cmake_cache(build_dir):
    values = {}
    cache = build_dir / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text(errors="replace").splitlines():
            if "=" in line and ":" in line.split("=", 1)[0] and not line.startswith(("#", "//")):
                key, value = line.split("=", 1)
                values[key.split(":", 1)[0]] = value
    return values


# ---------------------------------------------------------------------------
# Machine class: results are comparable only within one class.


def read_first(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cpu_max():
    v2 = read_first("/sys/fs/cgroup/cpu.max")
    if v2:
        return v2
    quota = read_first("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = read_first("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota and period:
        return ("max" if quota == "-1" else quota) + " " + period
    return "unknown"


def cpu_model():
    for line in (read_first("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def compiler(build_dir):
    """Compiler id and version as CMake detected them."""
    for path in sorted(build_dir.glob("CMakeFiles/*/CMakeCXXCompiler.cmake")):
        fields = {}
        for line in path.read_text(errors="replace").splitlines():
            for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                if line.startswith(f"set({key} "):
                    fields[key] = line.split(None, 1)[1].rstrip(")").strip('"')
        if fields:
            return " ".join(fields.get(k, "?") for k in ("CMAKE_CXX_COMPILER_ID",
                                                         "CMAKE_CXX_COMPILER_VERSION"))
    return "unknown"


def machine_class(build_dir):
    cache = cmake_cache(build_dir)
    return {
        "nproc": os.cpu_count(),
        "cpu_max": cpu_max(),
        "cpu_model": cpu_model(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "telemetry": cache.get("CDBP_TELEMETRY", "ON"),
        "compiler": compiler(build_dir),
    }


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def require_same_class(a, b):
    """Raises BenchError when two machine classes differ."""
    differing = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    if differing:
        details = ", ".join(f"{k}: {a.get(k)!r} vs {b.get(k)!r}" for k in differing)
        raise BenchError("refusing to compare results from different machine classes ("
                         + details + ")")


# ---------------------------------------------------------------------------
# Inputs and single runs


def ensure_input(suite, build_dir, workload, seed, smoke):
    """Generates the (workload, seed) input once; keeps a small LRU cache."""
    inputs = build_dir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    path = inputs / f"{workload}-s{seed}{'-smoke' if smoke else ''}.csv"
    if path.is_file():
        os.utime(path)
        return path
    tmp = path.with_suffix(".tmp")
    cmd = [str(suite), "gen", "--workload", workload, "--seed", str(seed), "--out", str(tmp)]
    if smoke:
        cmd.append("--smoke")
    if subprocess.call(cmd, timeout=RUN_TIMEOUT_S) != 0:
        raise BenchError(f"input generation failed for {workload}")
    # Write the pages back now, not during the measured run.
    with open(tmp, "rb") as f:
        os.fsync(f.fileno())
    os.replace(tmp, path)
    cached = sorted(inputs.glob("*.csv"), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in cached[INPUT_CACHE_FILES:]:
        old.unlink(missing_ok=True)
    return path


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def describe_exit(returncode):
    if returncode < 0:
        try:
            return f"died of {signal.Signals(-returncode).name}"
        except ValueError:
            return f"died of signal {-returncode}"
    return f"exited with status {returncode}"


def parse_result(stdout):
    """bench_suite's last line as a result, or None when it is not one."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    keys = ("correct", "attempted", "failed", "metrics")
    if not isinstance(result, dict) or any(k not in result for k in keys):
        return None
    return result


def run_once(build_dir, workload, seed, seconds, trace, smoke=False, input_dir=None):
    """Runs one workload in its own process; returns bench_suite's result."""
    suite, served = binaries(build_dir)
    input_path = ensure_input(suite, input_dir or build_dir, workload, seed, smoke)
    work = build_dir / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(suite), "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--input", str(input_path), "--served", str(served)]
    if smoke:
        cmd.append("--smoke")
    trace_path = None
    if trace:
        traces = build_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_path = traces / f"{workload}-s{seed}.json"
        cmd += ["--trace-out", str(trace_path)]
    # A process group of its own, so the daemon it spawns is stopped with it.
    proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        ended = describe_exit(proc.returncode)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        stdout, _ = proc.communicate()
        ended = f"was killed after {RUN_TIMEOUT_S} s"
    except BaseException:
        kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        kill_group(proc.pid)
    result = parse_result(stdout) if proc.returncode in (0, 1) else None
    if result is None:
        # A crash or a hang is a failed run, not a benchmark that cannot run.
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                  "failures": [f"bench_suite {ended} without a result"], "detail": {}}
    result["workload"] = workload
    result["seed"] = seed
    result["trace"] = bool(trace)
    if trace_path is not None:
        result["trace_file"] = os.path.relpath(trace_path, ROOT)
    return result


def result_line(result):
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


def print_result(result, out=sys.stdout):
    mode = "traced" if result["trace"] else "untraced"
    status = "correct" if result["correct"] else "INCORRECT"
    print(f"{result['workload']} seed {result['seed']} ({mode}): {status}, "
          f"{result['attempted']} attempted, {result['failed']} failed", file=out)
    for failure in result.get("failures", []):
        print(f"  check failed: {failure}", file=out)
    for name, metric in result["metrics"].items():
        print(f"  {name:<28} {metric['value']:>16.6g} {metric['unit']}", file=out)
    detail = result.get("detail", {})
    # serve-open's open-loop steps and ladder run in the traced run.
    for step in detail.get("steps", []) if result["trace"] else []:
        flag = " sustained" if step.get("sustained") else ""
        rate = f"{step['rate']:>10.0f}/s" if step["rate"] else f"{'closed':>12}"
        print(f"  step {step['label']:<18} {rate}  p50 {step['p50_us']:>9.1f} us"
              f"  p99 {step['p99_us']:>9.1f} us  lag p99 "
              f"{step['lag_p99_us']:>8.1f} us  backlog {step['backlog_at_end']:>6}  "
              f"failed {step['failed']}{flag}", file=out)
    if "sustained_rate_items_per_s" in detail:
        print(f"  sustained rate {detail['sustained_rate_items_per_s']:.6g} items/s "
              "(p99 <= 1 ms, backlog <= 10 ms of items, nothing failed)", file=out)
    if "trace_file" in result:
        print(f"  trace: {result['trace_file']}", file=out)
        try:
            trace = json.loads((ROOT / result["trace_file"]).read_text())
            for row in trace.get("selfTime", [])[:12]:
                print(f"  self time {row['name']:<24} {row['self_ms']:>10.2f} ms of "
                      f"{row['total_ms']:>10.2f} ms over {row['spans']} spans", file=out)
        except (OSError, ValueError):
            pass


# ---------------------------------------------------------------------------
# Statistics shared by --all, --spread and --ab


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_share(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_share(before, after, better):
    """How much worse `after` is than `before`, as a share of `before`."""
    if not before:
        return 0.0
    delta = (before - after) if better == "higher" else (after - before)
    return delta / abs(before)


def verdict(parent, change, better, bound):
    """improved / regressed / unresolved / unchanged for paired runs."""
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if wins >= 0.9 * len(pairs) and sign * (cm - pm) > (p3 - p1):
        return "improved", wins
    if worse_share(pm, cm, better) > bound:
        return "regressed", wins
    every_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if max(spread_share(parent), spread_share(change)) > bound and not every_better:
        return "unresolved", wins
    return "unchanged", wins


def metric_catalog():
    """BENCHMARK.json's metrics by name; per-layer metrics have no bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalog = {m["name"]: m for m in spec["end_to_end"]}
    for metric in spec["per_layer"]:
        catalog.setdefault(metric["name"], dict(metric, bound=None))
    return catalog


# ---------------------------------------------------------------------------
# Modes


def mode_single(args):
    build_dir = default_build_dir(args)
    build(build_dir)
    result = run_once(build_dir, args.workload, args.seed, args.seconds, args.trace == 1)
    results = build_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(result, machine=machine_class(build_dir), git_sha=git_sha())
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print_result(result)
    print(result_line(result))
    return 0 if result["correct"] else 1


def run_set(build_dir, args):
    """Per workload: args.runs untraced runs and, with --trace, one traced run."""
    runs = {}
    for workload in args.workloads:
        runs[workload] = {"untraced": []}
        for _ in range(args.runs):
            runs[workload]["untraced"].append(
                run_once(build_dir, workload, args.seed, args.seconds, False))
            print_result(runs[workload]["untraced"][-1])
        if args.trace:
            runs[workload]["traced"] = run_once(build_dir, workload, args.seed,
                                                args.seconds, True)
            print_result(runs[workload]["traced"])
    return runs


def mode_all(args):
    build_dir = default_build_dir(args)
    build(build_dir)
    catalog = metric_catalog()
    sets = [run_set(build_dir, args) for _ in range(args.sets)]
    doc = {"schema": "cdbp-benchsuite-result/2", "machine": machine_class(build_dir),
           "git_sha": git_sha(), "seed": args.seed, "seconds": args.seconds,
           "runs_per_set": args.runs, "sets": sets}
    correct = all(r["correct"] for s in sets for w in s.values()
                  for r in w["untraced"] + ([w["traced"]] if "traced" in w else []))
    if len(sets) > 1 and correct:
        doc["agreement"] = agreement(
            {w: [s[w]["untraced"] for s in sets] for w in args.workloads}, catalog)
        correct = print_agreement(doc["agreement"])
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if correct else 1


def agreement(runs_by_workload, catalog):
    """Per workload and end-to-end metric: each set's values, median and
    spread, and how much worse each later set's median is than the first's."""
    out = {}
    for workload, sets in runs_by_workload.items():
        out[workload] = {}
        for name in sets[0][0]["metrics"]:
            spec = catalog.get(name, {})
            bound = spec.get("bound")
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread_share(v) for v in values]
            worst = max(worse_share(medians[0], m, spec.get("better", "lower"))
                        for m in medians[1:]) if len(medians) > 1 else 0.0
            out[workload][name] = {"medians": medians, "spreads": spreads,
                                   "worse_share": worst, "bound": bound,
                                   "values": values}
    return out


def print_agreement(table):
    ok = True
    print(f"{'workload':<14} {'metric':<22} {'bound':>6} {'spread max':>10} "
          f"{'drift':>8}  medians")
    for workload, metrics in table.items():
        for name, row in metrics.items():
            bound = row["bound"]
            spread = max(row["spreads"])
            status = ""
            if bound is not None:
                if row["worse_share"] > bound or (name != "setup_s" and spread > bound):
                    status = "  OUT OF BOUND"
                    ok = False
            medians = " ".join(f"{m:.6g}" for m in row["medians"])
            print(f"{workload:<14} {name:<22} {bound if bound is not None else '-':>6} "
                  f"{spread:>10.4f} {row['worse_share']:>8.4f}  {medians}{status}")
    return ok


def mode_spread(args):
    """Runs each workload once per seed through the single-run command line,
    as an outside harness would, and reports spread and drift per metric."""
    build(default_build_dir())
    catalog = metric_catalog()
    runs_by_workload = {w: [] for w in args.workloads}
    for _ in range(args.sets):
        for workload in args.workloads:
            runs = []
            for seed in range(1, args.seeds + 1):
                cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
                started = time.monotonic()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=RUN_TIMEOUT_S + 30)
                line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
                result = json.loads(line)
                if proc.returncode != 0 or not result.get("correct"):
                    print(proc.stdout + proc.stderr, file=sys.stderr)
                    raise BenchError(f"{workload} seed {seed} failed")
                print(f"{workload} seed {seed}: {time.monotonic() - started:.1f} s", flush=True)
                runs.append(result)
            runs_by_workload[workload].append(runs)
    table = agreement(runs_by_workload, catalog)
    ok = print_agreement(table)
    if args.out:
        Path(args.out).write_text(json.dumps({"machine": machine_class(default_build_dir()),
                                              "seeds": args.seeds, "seconds": args.seconds,
                                              "table": table}, indent=1) + "\n")
    return 0 if ok else 1


def mode_ab(args):
    parent_dir, change_dir = Path(args.ab[0]).resolve(), Path(args.ab[1]).resolve()
    for d in (parent_dir, change_dir):
        binaries(d)
    require_same_class(machine_class(parent_dir), machine_class(change_dir))
    catalog = metric_catalog()
    values = {}  # (workload, metric) -> {"parent": [...], "change": [...]}
    correct = True
    for pair in range(args.pairs):
        for workload in args.workloads:
            order = [("parent", parent_dir), ("change", change_dir)]
            if pair % 2 == 1:
                order.reverse()
            for side, build_dir in order:
                # Inputs come from one cache so both sides see identical files.
                result = run_once(build_dir, workload, args.seed, args.seconds, False,
                                  input_dir=change_dir)
                correct = correct and result["correct"]
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, name), {"parent": [], "change": []})[
                        side].append(metric["value"])
        print(f"pair {pair + 1}/{args.pairs} done", flush=True)
    print(f"{'workload':<14} {'metric':<22} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'wins':>6}  verdict")
    for (workload, name), sides in values.items():
        spec = catalog[name]
        result, wins = verdict(sides["parent"], sides["change"], spec["better"],
                               spec["bound"])
        parent, change = ("/".join(f"{x:.4g}" for x in quartiles(sides[side]))
                          for side in ("parent", "change"))
        print(f"{workload:<14} {name:<22} {parent:>32} {change:>32} "
              f"{wins:>3}/{len(sides['change']):<2}  {result}")
    return 0 if correct else 1


def mode_smoke(args):
    build_dir = default_build_dir(args)
    build(build_dir)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    correct = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_once(build_dir, workload, 1, 1, trace, smoke=True)
            print_result(result)
            want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            if sorted(result["metrics"]) != sorted(want):
                print(f"  metrics differ from BENCHMARK.json: missing "
                      f"{sorted(set(want) - set(result['metrics']))}, extra "
                      f"{sorted(set(result['metrics']) - set(want))}")
                correct = False
            correct = correct and result["correct"]
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Self-test on fixtures


def self_test():
    checks = []

    def expect(ok, what):
        checks.append((ok, what))

    values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    q1, med, q3 = quartiles(values)
    expect((q1, med, q3) == (2.75, 5.5, 8.25), "quartiles of 1..10 (exclusive method)")
    expect(abs(spread_share(values) - 5.5 / 5.5) < 1e-12, "spread share of 1..10")
    expect(quartiles([4.0]) == (4.0, 4.0, 4.0), "quartiles of one value")
    expect(abs(worse_share(100, 90, "higher") - 0.1) < 1e-12, "throughput drop is worse")
    expect(abs(worse_share(100, 90, "lower") + 0.1) < 1e-12, "latency drop is better")

    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    improved = [v * 1.2 for v in parent]
    expect(verdict(parent, improved, "higher", 0.1)[0] == "improved", "clear gain")
    expect(verdict(parent, [v * 0.7 for v in parent], "higher", 0.1)[0] == "regressed",
           "30% throughput loss regresses past a 10% bound")
    expect(verdict(parent, list(parent), "higher", 0.1)[0] == "unchanged", "same values")
    noisy = [60, 140, 70, 130, 80, 120, 65, 135, 100, 100]
    expect(verdict(noisy, list(reversed(noisy)), "higher", 0.1)[0] == "unresolved",
           "spread wider than the bound is unresolved")
    win_few = [v + (1 if i < 5 else -1) for i, v in enumerate(parent)]
    expect(verdict(parent, win_few, "higher", 0.1)[0] == "unchanged",
           "5/10 wins is not a gain")

    base = {"nproc": 4, "cpu_max": "max 100000", "cpu_model": "x", "build_type": "Release",
            "telemetry": "ON", "compiler": "c++"}
    require_same_class(base, dict(base))
    for key, other in (("nproc", 1), ("build_type", "Debug"), ("telemetry", "OFF")):
        try:
            require_same_class(base, dict(base, **{key: other}))
            expect(False, f"refuses a different {key}")
        except BenchError:
            expect(True, f"refuses a different {key}")

    sets = [[{"metrics": {"items_per_s": {"value": v}}} for v in (100, 100, 100)],
            [{"metrics": {"items_per_s": {"value": v}}} for v in (80, 80, 80)]]
    table = agreement({"w": sets}, {"items_per_s": {"better": "higher", "bound": 0.1}})
    expect(abs(table["w"]["items_per_s"]["worse_share"] - 0.2) < 1e-12,
           "agreement reports the drift of the second set")

    expect(parse_result('progress\n{"correct": true}\n') is None, "a partial result is none")
    expect(parse_result("Segmentation fault\n") is None, "text is no result")
    expect(describe_exit(-signal.SIGSEGV) == "died of SIGSEGV", "signal names")

    # A measuring binary that crashes or prints garbage gives a failed run.
    with tempfile.TemporaryDirectory() as tmp:
        fake = Path(tmp)
        (fake / "cdbp" / "examples").mkdir(parents=True)
        (fake / "cdbp" / "examples" / "cdbp_served").write_text("")
        for body, what in (("kill -SEGV $$", "SIGSEGV"), ("echo garbage; exit 1", "status 1")):
            suite = fake / "bench_suite"
            suite.write_text("#!/bin/sh\n"
                             'if [ "$1" = gen ]; then\n'
                             '  while [ "$1" != --out ]; do shift; done; : > "$2"; exit 0\n'
                             "fi\n" + body + "\n")
            suite.chmod(0o755)
            result = run_once(fake, "replay-csv", 1, 1, False)
            expect(not result["correct"] and result["attempted"] >= 1
                   and result["failed"] == result["attempted"]
                   and what in result["failures"][0],
                   f"a measuring binary that ends with {what} fails the run")

    failed = [what for ok, what in checks if not ok]
    for what in failed:
        print(f"run.py self-test FAILED: {what}", file=sys.stderr)
    print(f"run.py self-test: {len(checks) - len(failed)}/{len(checks)} checks passed")

    # The percentile and ladder rules live in the measuring binary.
    suite = default_build_dir() / "bench_suite"
    if suite.is_file():
        rc = subprocess.call([str(suite), "selftest"])
        if rc != 0:
            failed.append("bench_suite selftest")
    else:
        print("bench_suite selftest: skipped (not built; run.py --build-only)")
    return 0 if not failed else 1


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    modes = parser.add_mutually_exclusive_group()
    modes.add_argument("--all", action="store_true", help="run every workload")
    modes.add_argument("--spread", action="store_true",
                       help="run every workload once per seed and report spreads")
    modes.add_argument("--ab", nargs=2, metavar=("PARENT_BUILD", "CHANGE_BUILD"),
                       help="alternate runs of two build directories")
    modes.add_argument("--smoke", action="store_true", help="tiny runs of every workload")
    modes.add_argument("--self-test", action="store_true", help="fixture tests")
    modes.add_argument("--build-only", action="store_true", help="build and exit")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--runs", type=int, default=1, help="--all: untraced runs per "
                                                             "workload in each set")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out")
    parser.add_argument("--build-dir", help="CMake build tree (default $CARGO_TARGET_DIR "
                                            "or .bench_build)")
    args = parser.parse_args(argv)
    if not any((args.all, args.spread, args.ab, args.smoke, args.self_test,
                args.build_only)) and args.workload is None:
        parser.error("give --workload or a mode")
    if min(args.seconds, args.sets, args.runs, args.seeds, args.pairs) < 1:
        parser.error("--seconds, --sets, --runs, --seeds and --pairs must be positive")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.build_only:
            build(default_build_dir(args))
            return 0
        if args.smoke:
            return mode_smoke(args)
        if args.all:
            return mode_all(args)
        if args.spread:
            return mode_spread(args)
        if args.ab:
            return mode_ab(args)
        return mode_single(args)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
