#!/usr/bin/env python3
"""Runs one workload of the AutoDC end-to-end benchmark.

    python3 e2ebench/run.py --workload curate_dedup --seed 1 --seconds 20 \
        --trace 0 [fixed settings from BENCHMARK.json's command]

Run from the root of a source checkout. The script builds the benchmark
binary (and the library it links) with CMake into .bench_build/, writes
the seeded inputs under .bench_work/ (removed afterwards), runs the
binary, checks its result line against BENCHMARK.json and prints that
line last. Traced runs leave a Chrome trace in .bench_out/.

Exit status is 0 only for a run whose outputs passed every check; any
failure (build, output check, malformed result) exits nonzero without
printing a result.
"""

import argparse
import fcntl
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# Every run must end within this many seconds of starting; the first
# run of a checkout builds and is allowed longer.
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 850

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def spec_problems(spec):
    """Name and unit checks on BENCHMARK.json's metric lists."""
    problems = []
    seen = set()
    for section in ("end_to_end", "per_layer"):
        for m in spec.get(section, []):
            name, unit = m.get("name", ""), m.get("unit", "")
            if not NAME_RE.match(name):
                problems.append(f"bad metric name {name!r}")
            if name in seen:
                problems.append(f"metric name used twice: {name}")
            seen.add(name)
            if not UNIT_RE.match(unit):
                problems.append(f"bad unit {unit!r} for {name}")
    for w in spec.get("workloads", []):
        if not NAME_RE.match(w.get("name", "")):
            problems.append(f"bad workload name {w.get('name')!r}")
    return problems


def result_problems(result, spec, trace):
    """Checks a result object against the metric list it must carry."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"result keys must be exactly {sorted(RESULT_KEYS)}"]
    problems = []
    if result["correct"] is not True:
        problems.append("result is not correct")
    for key in ("attempted", "failed"):
        v = result[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            problems.append(f"{key} must be a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted must be at least 1")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics must be an object"]
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing:
        problems.append(f"missing metrics: {missing}")
    if extra:
        problems.append(f"unexpected metrics: {extra}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            continue
        v = m["value"]
        if (not isinstance(v, (int, float)) or isinstance(v, bool)
                or not math.isfinite(v)):
            problems.append(f"{name}: value is not a finite number")
        if m["unit"] != unit:
            problems.append(f"{name}: unit {m['unit']!r}, expected {unit!r}")
    return problems


def run_group(cmd, timeout, stdout):
    """Runs `cmd` in its own process group; on timeout the whole group
    (make's compilers included) is killed and reaped before raising."""
    proc = subprocess.Popen(cmd, stdout=stdout, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    """Configures once, then brings the binary up to date."""
    steps = [["cmake", "--build", BUILD_DIR, "--target", "e2ebench",
              "-j", str(os.cpu_count() or 2)]]
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        rc, _ = run_group(cmd, BUILD_LIMIT_S, sys.stderr)
        if rc != 0:
            raise subprocess.CalledProcessError(rc, cmd)
    return os.path.join(BUILD_DIR, "e2ebench")


def main(argv):
    start = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    p.add_argument("--threads", required=True)
    p.add_argument("--low-rps", required=True)
    p.add_argument("--high-rps", required=True)
    p.add_argument("--slo-ms", required=True)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = spec_problems(spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        problems.append(f"unknown workload {args.workload!r}")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1

    os.makedirs(BUILD_DIR, exist_ok=True)
    try:
        with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    start = max(start, time.monotonic() - 5)  # the build has its own limit

    work = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--threads", args.threads, "--low-rps", args.low_rps,
           "--high-rps", args.high_rps, "--slo-ms", args.slo_ms,
           "--work-dir", work, "--out-dir", OUT_DIR]
    try:
        rc, stdout = run_group(
            cmd, max(10.0, RUN_LIMIT_S - (time.monotonic() - start)),
            subprocess.PIPE)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    if rc != 0:
        sys.stderr.write(stdout)
        print(f"benchmark exited with {rc}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("benchmark printed no result line", file=sys.stderr)
        return 1
    problems = result_problems(result, spec, args.trace == "1")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
