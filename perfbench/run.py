#!/usr/bin/env python3
"""Runs the BI protocol benchmark for one workload and prints its result.

    python3 perfbench/run.py --workload insert-power --seed 1 --seconds 10 --trace 0

Run it from the root of the repository. It builds perfbench/ (and the snb
libraries from src/) in Release mode under .bench_build/, runs the protocol
binary, checks its correctness gates and, for the default seed, its result
checksum against perfbench/checksums.json. The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). A human-readable table goes to stderr. The exit code is 0 only
when the run is correct. --workload all runs every workload in turn.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("insert-power", "delete-power", "mixed-refresh")
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; True on success."""
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            # A half-configured tree would skip configuring next time.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "-j", "4",
           "--target", "protocol", "perfbench_test"]
    return subprocess.run(cmd, stdout=sys.stderr, env=env,
                          timeout=BUILD_TIMEOUT_S).returncode == 0


def expected_checksum(size, workload):
    path = os.path.join(HERE, "checksums.json")
    with open(path) as f:
        return json.load(f).get(size, {}).get(workload)


def run_workload(args, workload):
    """Runs one workload; returns its result dict, or None on a crash."""
    work_dir = os.path.join(BUILD_ROOT, "work", "%s-%d" % (workload,
                                                             os.getpid()))
    trace_dir = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, "%s-%s-seed%d.json" % (
        workload, args.size, args.seed))
    cmd = [os.path.join(BUILD_DIR, "protocol"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--work-dir", work_dir,
           "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("protocol: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("protocol: %s printed no report (exit %d)" % (workload,
                                                          proc.returncode))
        return None
    report = json.loads(lines[-1])

    correct = bool(report["correct"]) and proc.returncode == 0
    want = (expected_checksum(args.size, workload)
            if args.seed == DEFAULT_SEED else None)
    got = report["checksum"]
    if want is not None and want != got:
        log("checksum mismatch for %s: got %s, recorded %s" % (workload, got,
                                                               want))
        correct = False
    log("%s: gates %s, checksum %s%s" % (
        workload, json.dumps(report["gates"]), got,
        "" if want is None else (" (recorded %s)" % want)))

    metrics = report["per_layer"] if args.trace else report["metrics"]
    for name, m in metrics.items():
        log("  %-40s %16.6g %s" % (name, m["value"], m["unit"]))
    return {"correct": correct, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "smoke"),
                        default="default")
    args = parser.parse_args()
    # SIGTERM unwinds through subprocess.run, which kills and reaps the
    # child before re-raising.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        built = build()
    except subprocess.TimeoutExpired:
        built = False
    if not built:
        log("perfbench: build failed")
        return 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for workload in workloads:
        result = run_workload(args, workload)
        if result is None:
            return 1
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
