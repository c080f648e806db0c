#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload ingest-mem|fire \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to .bench_build/perfbench
(Release), database files and span traces to .bench_build/work. Build
output goes to stderr; stdout carries the benchmark's own lines, the last
of which is the JSON result. Exits non-zero, printing no result, when the
build or the run fails.

An untimed (--trace 0) ingest-mem run is split over PROCESSES processes run
one after another, each for an equal share of --seconds; each metric is
the median of theirs. Same-seed ingest processes differ from each other
by up to 30% in p50 latency, more than the segments within one process
do, so one process alone would be one draw of that.
"""
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
RUN_TIMEOUT_S = 175
PROCESSES = 3


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def option(name, default):
    args = sys.argv[1:]
    return args[args.index(name) + 1] if name in args[:-1] else default


def merge(results):
    """One result from several processes: the median of each metric."""
    metrics = {}
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values), "unit": metric["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main():
    if not build():
        return 3
    WORK.mkdir(parents=True, exist_ok=True)
    split = option("--workload", "") == "ingest-mem" and option("--trace", "0") == "0"
    processes = PROCESSES if split else 1
    args = sys.argv[1:]
    if split:
        seconds = float(option("--seconds", "10")) / processes
        at = args.index("--seconds")
        args = args[:at + 1] + [repr(seconds)] + args[at + 2:]
    cmd = [str(BUILD / "perfbench"), "--work-dir", str(WORK)] + args
    deadline = time.monotonic() + RUN_TIMEOUT_S
    outputs = []
    for _ in range(processes):
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
            return 4
        if done.returncode != 0:
            print("perfbench: run failed with code %d" % done.returncode,
                  file=sys.stderr)
            return done.returncode or 5
        outputs.append(done.stdout.strip().splitlines())
    if processes == 1:
        print("\n".join(outputs[0]))
        return 0
    print("\n".join(outputs[0][:-1]))
    print(json.dumps(merge([json.loads(lines[-1]) for lines in outputs])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
