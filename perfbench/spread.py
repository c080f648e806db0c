#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and comparison of two sets.

Run one workload over several seeds and report, per metric, the median and
the spread (interquartile distance over the median, as the bounds in
BENCHMARK.json are judged):

    python3 perfbench/spread.py --workload fire --seeds 1-10 [--out runs.jsonl]

Compare two saved sets (medians, and the worsening against each metric's
bound). Sets whose host fingerprints differ are refused, not compared:

    python3 perfbench/spread.py --compare before.jsonl after.jsonl
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit("run failed: workload %s seed %d" % (workload, seed))
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    host = next(l[5:] for l in lines if l.startswith("host "))
    return {"workload": workload, "seed": seed, "wall_s": wall,
            "host": json.loads(host), "result": result}


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def summarize(runs):
    bounds = {m["name"]: m.get("bound") for m in spec()["end_to_end"]}
    names = sorted(runs[0]["result"]["metrics"])
    print("%-18s %14s %8s %8s" % ("metric", "median", "spread", "bound"))
    for name in names:
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        b = bounds.get(name)
        print("%-18s %14.6g %8.4f %8s" % (name, statistics.median(vals),
                                           spread(vals), "-" if b is None else b))
    print("correct: %s  wall_s: %s" % (
        all(r["result"]["correct"] for r in runs),
        " ".join("%.0f" % r["wall_s"] for r in runs)))


def load(path):
    return [json.loads(l) for l in Path(path).read_text().splitlines() if l.strip()]


def compare(a_path, b_path):
    a, b = load(a_path), load(b_path)
    hosts = {json.dumps(r["host"], sort_keys=True) for r in a + b}
    if len(hosts) != 1:
        print("refusing to compare: results come from different hosts:")
        for h in sorted(hosts):
            print("  " + h)
        return 2
    worse = 0
    for m in spec()["end_to_end"]:
        for workload in sorted({r["workload"] for r in a}):
            va = [r["result"]["metrics"][m["name"]]["value"] for r in a if r["workload"] == workload]
            vb = [r["result"]["metrics"][m["name"]]["value"] for r in b if r["workload"] == workload]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = "WORSE" if change > m["bound"] else "ok"
            worse += flag == "WORSE"
            print("%-16s %-16s %12.6g -> %12.6g  worsened %+7.2f%% (bound %g%%) %s" % (
                workload, m["name"], ma, mb, 100 * change, 100 * m["bound"], flag))
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2)
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload or --compare is required")
    seconds = args.seconds or spec()["run_seconds"]
    runs = []
    for s in seeds(args.seeds):
        r = run_once(args.workload, s, seconds)
        runs.append(r)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(r) + "\n")
    summarize(runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
