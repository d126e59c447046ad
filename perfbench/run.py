#!/usr/bin/env python3
"""Runs one workload of the fastcons benchmark and prints its result.

    python3 perfbench/run.py --workload sim-ba1k --seed 7 --seconds 20 --trace 0

Builds the benchmark (perfbench/CMakeLists.txt, Release, into
$CARGO_TARGET_DIR or .bench_build) from the sources in this checkout, runs
the workload in a fresh process, checks its outputs and prints, as the last
line of standard output, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
With --trace 1 the workload runs twice, untraced and then traced; the
metrics are the per-layer metrics, plus the tracing overhead between the two
runs. A metric of a layer the workload does not exercise reads 0; a metric
of a layer it does exercise (LAYER_METRICS) must be reported.

Exit status: 0 when every correctness check passed, 1 when one failed (the
result line says which), 2 when the benchmark could not run at all.

    python3 perfbench/run.py --selftest   # helper tests + quick end-to-end run
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
PINNED_FILE = BENCH_DIR / "PINNED_DIGEST"
DEFAULT_SEED = 42
# Per-layer metrics each workload must report, by name prefix. The others
# belong to layers the workload does not exercise and read 0.
LAYER_METRICS = {
    "sim-ba1k": ("run.", "harness.", "sim_runtime.", "sim.", "core.sim_",
                 "experiment.", "proc.cpu_util", "trace."),
    "live-saturate": ("run.", "net.", "core.msgs_per_write.", "core.dup_ratio",
                      "core.offer_accept_ratio", "core.sessions_per_s", "wire.",
                      "proc.", "driver.", "durability.", "trace."),
}
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchError(Exception):
    """The benchmark could not run (exit status 2)."""


def load_spec():
    try:
        return json.loads(SPEC_FILE.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {SPEC_FILE.name}: {e}")


def spec_problems(spec):
    """Name, unit and shape checks on BENCHMARK.json; returns a list of
    problems (empty when the file is well-formed)."""
    problems = []
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec.get(section, []):
            name = entry.get("name", "")
            if not NAME_RE.match(name):
                problems.append(f"{section}: bad name {name!r}")
            if name in seen:
                problems.append(f"{section}: duplicate name {name!r}")
            seen.add(name)
            if section != "workloads" and not UNIT_RE.match(entry.get("unit", "")):
                problems.append(f"{section}: bad unit for {name!r}")
    if "setup_s" not in {m["name"] for m in spec.get("end_to_end", [])}:
        problems.append("end_to_end: setup_s missing")
    return problems


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(targets):
    """Configures (once) and builds the benchmark; returns its build tree."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"fastcons sources not found under {ROOT / 'src'}")
    tree = build_dir() / "perfbench"
    tree.mkdir(parents=True, exist_ok=True)
    if not (tree / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(tree),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(tree), "-j", str(os.cpu_count() or 2),
           "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return tree


def run_timeout(seconds):
    """How long one workload process may take: its window, the sample-size
    extension and drain, set-up, checks and (traced) probes."""
    return 2 * seconds + 90


def pinned_digest(workload):
    for line in PINNED_FILE.read_text().splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == workload:
            return parts[1]
    raise BenchError(f"no pinned digest for {workload} in {PINNED_FILE.name}")


def run_workload(binary, args, trace, scratch, trace_out):
    """Runs the workload binary once; returns its parsed result object."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--scratch", str(scratch)]
    if args.workload == "sim-ba1k":
        cmd += ["--pinned-digest", pinned_digest(args.workload)]
    if trace:
        cmd += ["--trace", "--trace-out", str(trace_out)]
    if args.quick:
        cmd.append("--quick")
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timeout = run_timeout(args.seconds)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload did not finish within {timeout} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"workload process failed (status {proc.returncode})")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise BenchError("workload process printed no result object")


def select(spec_metrics, produced, errors, required):
    """The result's metrics for one section of BENCHMARK.json. A metric
    `required(name)` rejects must not be reported and reads 0."""
    metrics = {}
    for m in spec_metrics:
        name = m["name"]
        if not required(name):
            if name in produced:
                errors.append(f"{name}: reported by a workload that does not exercise it")
            metrics[name] = {"value": 0, "unit": m["unit"]}
            continue
        if name not in produced:
            errors.append(f"{name}: not reported")
            continue
        value, unit = produced[name]["value"], produced[name]["unit"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name}: value {value!r} is not a finite number")
            value = 0
        if unit != m["unit"]:
            errors.append(f"{name}: unit {unit} != {m['unit']}")
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def measure(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
    tree = build(["perfbench"])
    binary = tree / "perfbench"
    scratch = build_dir() / "scratch" / f"{args.workload}-{os.getpid()}"
    traces = build_dir() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    trace_out = traces / f"{args.workload}.csv"

    untraced = run_workload(binary, args, False, scratch, trace_out)
    runs = [untraced]
    if args.trace:
        runs.append(run_workload(binary, args, True, scratch, trace_out))
    errors = [e for r in runs for e in r.get("errors", [])]
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for r in runs:
        for name in r["metrics"]:
            if name not in known:
                errors.append(f"{name}: reported but not listed in BENCHMARK.json")

    final = runs[-1]
    if args.trace:
        traced = final["metrics"]
        for name, metric, sign in (("trace.overhead_frac", "throughput_per_s", -1),
                                   ("trace.p50_overhead_frac", "visibility_p50_ms", 1)):
            base = untraced["metrics"][metric]["value"]
            change = traced[metric]["value"] / base - 1.0 if base else 0.0
            traced[name] = {"value": sign * change, "unit": "frac"}
        prefixes = LAYER_METRICS[args.workload]
        metrics = select(spec["per_layer"], traced, errors,
                         lambda name: name.startswith(prefixes))
        print(f"spans written to {trace_out}")
    else:
        metrics = select(spec["end_to_end"], final["metrics"], errors,
                         lambda name: True)
    for name, m in final["metrics"].items():
        print(f"{args.workload:14s} {name:40s} {m['value']:.6g} {m['unit']}")
    for e in errors:
        print(f"check failed: {e}")
    result = {
        "correct": not errors and all(r["correct"] for r in runs),
        "attempted": max(int(final["attempted"]), 1),
        "failed": int(final["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def selftest():
    tree = build(["perfbench", "perfbench_tests"])
    if subprocess.run([str(tree / "perfbench_tests")]).returncode != 0:
        return 1
    suite = subprocess.run([sys.executable, "-m", "unittest", "-v",
                            "test_benchmark"], cwd=BENCH_DIR / "tests")
    return suite.returncode


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="seconds-long smoke run without sample-size checks")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    # A terminated run still stops its workload process and removes scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = load_spec()
        problems = spec_problems(spec)
        if problems:
            raise BenchError("BENCHMARK.json: " + "; ".join(problems))
        if args.selftest:
            return selftest()
        if not args.workload:
            raise BenchError("--workload is required")
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        return measure(args, spec)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
