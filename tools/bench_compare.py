#!/usr/bin/env python3
"""Benchmark regression gate.

Compares two combined benchmark JSON files (the format the CI bench job
emits: {"bench_<suite>": <google-benchmark --benchmark_format=json
output>, ...}) and fails if any benchmark present in BOTH files slowed
down by more than the allowed ratio in real time.

Only shared (suite, benchmark-name) pairs are compared: new benchmarks
have no baseline and removed ones have no measurement, so both are
reported but never gate. Wall-clock noise on shared runners is real;
the default threshold (+25%) is deliberately loose — this gate exists
to catch algorithmic regressions, not scheduler jitter.

Under --benchmark_repetitions a benchmark reports one iteration row per
repetition, all under the same name; the gate compares the median of
those rows (the last one alone is just the noisiest sample that
happened to finish last).

A row whose measured real time is zero (a benchmark that crashed or was
interrupted leaves such stubs) is skipped with a note instead of gating:
a zero denominator used to turn into an infinite ratio and a spurious
FAIL on an otherwise healthy run.

Usage: bench_compare.py BASELINE.json FRESH.json [--threshold 1.25]
                        [--summary-out FILE]
       bench_compare.py --self-test
Exit status: 0 = within threshold, 1 = regression, 2 = usage/IO error.

--summary-out writes the comparison as a GitHub-flavored markdown table;
CI appends it to $GITHUB_STEP_SUMMARY so the delta is readable from the
job page without digging through the log.
"""

import argparse
import json
import statistics
import sys

# Everything is normalized to nanoseconds before comparison.
_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_suites(path):
    """Returns {suite: {bench_name: real_time_ns}} from a combined file,
    the time being the median of the name's repetitions."""
    with open(path) as f:
        combined = json.load(f)
    suites = {}
    for suite, report in combined.items():
        if not isinstance(report, dict) or "benchmarks" not in report:
            continue
        samples = {}
        for b in report["benchmarks"]:
            # Aggregate rows (mean/median/stddev from --benchmark_repetitions)
            # would double-count; gate on plain iteration rows only.
            if b.get("run_type") == "aggregate":
                continue
            unit = _UNIT_NS.get(b.get("time_unit", "ns"))
            if unit is None or "real_time" not in b:
                continue
            samples.setdefault(b["name"], []).append(b["real_time"] * unit)
        rows = {}
        for name, times in samples.items():
            # Zero-time stubs are broken repetitions, not samples; a name
            # with no real sample keeps 0 so the caller skips it.
            real = [t for t in times if t > 0]
            rows[name] = statistics.median(real) if real else 0.0
        suites[suite] = rows
    return suites


def self_test():
    """End-to-end check of the gate against synthetic fixtures; returns 0
    on success. CI runs this before trusting the real comparison, so a
    broken gate fails loudly instead of silently passing regressions."""
    import tempfile

    def bench(name, ns):
        return {"name": name, "run_type": "iteration",
                "time_unit": "ns", "real_time": ns}

    def run(base_rows, fresh_rows, threshold=1.25):
        with tempfile.TemporaryDirectory() as d:
            bp, fp = f"{d}/base.json", f"{d}/fresh.json"
            with open(bp, "w") as f:
                json.dump({"bench_x": {"benchmarks": base_rows}}, f)
            with open(fp, "w") as f:
                json.dump({"bench_x": {"benchmarks": fresh_rows}}, f)
            return main([bp, fp, "--threshold", str(threshold)])

    cases = [
        # (description, expected exit, baseline rows, fresh rows)
        ("identical runs pass", 0, [bench("a", 100)], [bench("a", 100)]),
        ("real regression fails", 1, [bench("a", 100)], [bench("a", 200)]),
        ("improvement passes", 0, [bench("a", 200)], [bench("a", 100)]),
        ("baseline-only benchmark is skipped", 0, [bench("a", 100)], []),
        ("fresh-only benchmark is skipped", 0, [], [bench("a", 100)]),
        ("zero-time baseline is skipped, not an inf-ratio FAIL", 0,
         [bench("a", 0), bench("b", 100)],
         [bench("a", 100), bench("b", 100)]),
        ("zero-time fresh row is skipped", 0,
         [bench("a", 100)], [bench("a", 0)]),
        # Repetitions share one name; the median gates, not the last.
        ("median within bound passes though the last repetition is not", 0,
         [bench("a", 100)],
         [bench("a", 100), bench("a", 110), bench("a", 200)]),
        ("median beyond bound fails though the last repetition is within", 1,
         [bench("a", 100)],
         [bench("a", 200), bench("a", 210), bench("a", 100)]),
        ("baseline repetitions gate on their median too", 1,
         [bench("a", 100), bench("a", 100), bench("a", 300)],
         [bench("a", 150)]),
        ("a zero-time repetition is dropped, not counted in the median", 0,
         [bench("a", 100)],
         [bench("a", 0), bench("a", 100), bench("a", 110)]),
    ]
    for desc, expected, base_rows, fresh_rows in cases:
        got = run(base_rows, fresh_rows)
        if got != expected:
            print(f"bench_compare --self-test: FAIL: {desc}: "
                  f"exit {got}, expected {expected}", file=sys.stderr)
            return 1
    print(f"bench_compare --self-test: PASS ({len(cases)} cases)")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("fresh", nargs="?")
    ap.add_argument(
        "--self-test",
        action="store_true",
        help="run the gate against built-in fixtures and exit",
    )
    ap.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="fail when fresh/baseline real time exceeds this (default 1.25)",
    )
    ap.add_argument(
        "--summary-out",
        metavar="FILE",
        help="also write the comparison as a markdown table to FILE",
    )
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.baseline is None or args.fresh is None:
        ap.error("baseline and fresh files are required (or --self-test)")

    try:
        base = load_suites(args.baseline)
        fresh = load_suites(args.fresh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2

    regressions = []
    compared = 0
    md = ["| benchmark | baseline | fresh | ratio | verdict |",
          "|---|---:|---:|---:|---|"]
    for suite in sorted(set(base) | set(fresh)):
        b_rows = base.get(suite, {})
        f_rows = fresh.get(suite, {})
        only_base = sorted(set(b_rows) - set(f_rows))
        only_fresh = sorted(set(f_rows) - set(b_rows))
        for name in only_base:
            print(f"  [gone ] {suite}/{name} (baseline only, not gated)")
            md.append(f"| {suite}/{name} | {b_rows[name]:.0f}ns | — | — | gone |")
        for name in only_fresh:
            print(f"  [new  ] {suite}/{name} (no baseline, not gated)")
            md.append(f"| {suite}/{name} | — | {f_rows[name]:.0f}ns | — | new |")
        for name in sorted(set(b_rows) & set(f_rows)):
            b_ns, f_ns = b_rows[name], f_rows[name]
            if b_ns <= 0 or f_ns <= 0:
                # A zero measurement is a broken row (crashed or
                # interrupted run), not a result — comparing against it
                # would gate on an infinite or zero ratio.
                print(
                    f"  [skip ] {suite}/{name}: zero-time measurement "
                    f"({b_ns:.0f}ns -> {f_ns:.0f}ns), not gated"
                )
                md.append(
                    f"| {suite}/{name} | {b_ns:.0f}ns | {f_ns:.0f}ns "
                    f"| — | skipped (zero time) |"
                )
                continue
            compared += 1
            ratio = f_ns / b_ns
            # FASTER is informational symmetry with SLOWER: a win beyond
            # the same margin the gate allows for losses.
            if ratio > args.threshold:
                verdict = "SLOWER"
            elif ratio < 1.0 / args.threshold:
                verdict = "FASTER"
            else:
                verdict = "ok"
            print(
                f"  [{verdict:>6}] {suite}/{name}: "
                f"{b_ns:.0f}ns -> {f_ns:.0f}ns ({ratio:.2f}x baseline)"
            )
            md.append(
                f"| {suite}/{name} | {b_ns:.0f}ns | {f_ns:.0f}ns "
                f"| {ratio:.2f}x | {verdict} |"
            )
            if ratio > args.threshold:
                regressions.append((suite, name, ratio))

    if args.summary_out:
        try:
            with open(args.summary_out, "w") as f:
                f.write("\n".join(md) + "\n")
        except OSError as e:
            print(f"bench_compare: {e}", file=sys.stderr)
            return 2

    print(f"bench_compare: {compared} shared benchmarks compared")
    if regressions:
        print(
            f"bench_compare: FAIL — {len(regressions)} benchmark(s) regressed "
            f"beyond {args.threshold:.2f}x:",
            file=sys.stderr,
        )
        for suite, name, ratio in regressions:
            print(f"  {suite}/{name}: {ratio:.2f}x", file=sys.stderr)
        return 1
    print(f"bench_compare: PASS (threshold {args.threshold:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
