#!/usr/bin/env python3
"""Builds and runs the benchmark of record for one workload.

    python3 perfbench/run.py --workload example4|scan|read_write \
        --seed N --seconds S --trace 0|1 [--docs N]

Run from the repository root. The first call configures and builds the
engine and the benchmark binary under .bench_build/ (Release); later
calls only re-check the build. The last stdout line is the result JSON;
build output and human-readable detail go to stderr.

An end-to-end run (--trace 0) starts the benchmark binary PARTS times, one after
the other, each a fresh process that loads the system and times
SECONDS / PARTS of the workload on op streams of its own. It reports the median of each metric
over the parts (ok_share over all their ops). The speed of one load on
a shared host moves by tens of percent with where the load put the data
and with what the host's other tenants do; a median over loads moves
far less. A traced run (--trace 1) is a single process.

Page files live in a per-run directory under .bench_run/ that is removed
afterwards; a traced run keeps its Chrome trace in .bench_run/traces/.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_run")
BINARY = os.path.join(BUILD, "vodak_perfbench")
# A run must end within 180 s; stop the binary well before that.
RUN_TIMEOUT_S = 170
PARTS = 3


def fail(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "database.h")):
        fail("engine sources not found under %s/src" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "vodak_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("build step failed: " + " ".join(step))


def run_part(command, deadline):
    """Runs one benchmark process; returns its result dict or None."""
    proc = subprocess.Popen(command, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("benchmark run timed out", file=sys.stderr)
        return None
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("benchmark binary exited with %d" % proc.returncode, file=sys.stderr)
        return None
    return json.loads(lines[-1])


def combine(parts):
    """Medians over the parts; counts and ok_share over all their ops."""
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    metrics = {}
    for name, first in parts[0]["metrics"].items():
        value = statistics.median(p["metrics"][name]["value"] for p in parts)
        if name == "ok_share":
            value = 1.0 - failed / attempted
        metrics[name] = {"value": value, "unit": first["unit"]}
    return {"correct": all(p["correct"] for p in parts),
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["example4", "scan", "read_write"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--docs", type=int, default=None,
                        help="corpus size override (tests only)")
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    parts = 1 if args.trace else PARTS
    results = []
    for part in range(parts):
        workdir = os.path.join(RUNS, "%s-%d-%d-%d" % (
            args.workload, args.seed, os.getpid(), part))
        os.makedirs(workdir, exist_ok=True)
        command = [BINARY, "--workload", args.workload,
                   "--seed", str(args.seed),
                   "--seconds", repr(args.seconds / parts),
                   "--trace", str(args.trace), "--workdir", workdir,
                   "--part", str(part)]
        if args.docs is not None:
            command += ["--docs", str(args.docs)]
        results.append(run_part(command, deadline))
        traces = os.path.join(RUNS, "traces")
        for name in os.listdir(workdir):
            if name.startswith("trace-") and name.endswith(".json"):
                os.makedirs(traces, exist_ok=True)
                shutil.move(os.path.join(workdir, name),
                            os.path.join(traces, name))
        shutil.rmtree(workdir, ignore_errors=True)
        if results[-1] is None:
            sys.exit(3)
    print(json.dumps(combine(results)))


if __name__ == "__main__":
    main()
