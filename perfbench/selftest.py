#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py            # all tests (about 4 minutes)
    python3 perfbench/selftest.py checks     # only the check-can-fail test
    python3 perfbench/selftest.py repeat     # only the exact-repeat test

checks: each correctness check can fail. The benchmark runs once with one
acked make dropped from the ingest client model, and once with fire's
expected firing count perturbed; both runs must report "correct": false,
and the same runs without the defect must report true.

repeat: deterministic counters repeat exactly. Two traced runs at one seed
must give identical fire firings, WM digest, match.* and plan.* counters
and identical counts from the ingest replays (txn calls, WAL records and
bytes, buffer-pool hits, misses, evictions, steals). A run at another seed
must give different ones, which shows the seed reaches the inputs.

Seeds 1-10 are the tuning seeds. HELD_OUT_SEED is kept out of tuning:
verify a later performance claim on it as well.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 7919
SEED_A, SEED_B = 3, 4


def run(workload, seed, seconds, trace, fault=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if fault:
        cmd += ["--fault", fault]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-3000:])
        raise SystemExit("benchmark exited with %d: %s" % (done.returncode, cmd))
    lines = done.stdout.strip().splitlines()
    counters = next((json.loads(l[9:]) for l in lines if l.startswith("counters ")), {})
    return json.loads(lines[-1]), counters


def test_checks():
    failures = 0
    for workload, fault in (("ingest-mem", "drop-make"), ("fire", "fire-count")):
        clean, _ = run(workload, SEED_A, 2, 0)
        broken, _ = run(workload, SEED_A, 2, 0, fault)
        ok = clean["correct"] is True and broken["correct"] is False
        failures += not ok
        print("%-4s %s --fault %s: correct without=%s, with=%s" % (
            "ok" if ok else "FAIL", workload, fault, clean["correct"], broken["correct"]))
    return failures


def deterministic(counters):
    return {k: v for k, v in counters.items()
            if k.startswith("fire.") or ".replay." in k}


def test_repeat():
    _, a1 = run("fire", SEED_A, 1, 1)
    _, a2 = run("fire", SEED_A, 1, 1)
    _, b = run("fire", SEED_B, 1, 1)
    a1, a2, b = deterministic(a1), deterministic(a2), deterministic(b)
    failures = 0
    if not a1:
        print("FAIL no deterministic counters reported")
        return 1
    for key in sorted(a1):
        same = a1[key] == a2.get(key)
        failures += not same
        print("%-4s seed %d twice: %-44s %s %s" % (
            "ok" if same else "FAIL", SEED_A, key, a1[key], a2.get(key)))
    moved = [k for k in a1 if a1[k] != b.get(k)]
    ok = "fire.firings" in moved and "fire.digest" in moved and \
        any(".replay." in k for k in moved)
    failures += not ok
    print("%-4s seed %d vs %d: %d of %d counters differ" % (
        "ok" if ok else "FAIL", SEED_A, SEED_B, len(moved), len(a1)))
    return failures


def main():
    which = sys.argv[1:] or ["checks", "repeat"]
    failures = 0
    if "checks" in which:
        failures += test_checks()
    if "repeat" in which:
        failures += test_repeat()
    print("selftest: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
