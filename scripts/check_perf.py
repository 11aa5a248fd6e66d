#!/usr/bin/env python3
"""Gate engine throughput against a committed perf baseline.

Compares a fresh perf-bench stats export (any bench whose rows carry
`workload` and `sim_mops_per_sec`: perf_hotpath vs BENCH_hotpath.json,
perf_serve vs BENCH_serve.json) against the checked-in baseline and fails
when any workload's simulated-ops/sec falls below `1 / --max_regression` of
its baseline (default: a 2x slowdown).

The gate also ratchets upward: a measurement *exceeding* the baseline by more
than --max_improvement (default 4x) fails too. A real optimization that large
should land with a refreshed baseline file so the regression floor rises
with it — otherwise the stale baseline quietly grants all future changes that
much headroom before the floor can trip.

A baseline and a current run are only comparable at the same scale: the gate
exits 2 when a workload's `ops` or `reps` differ between the two (warm-up
alone makes a quick-scale row look slower than a full-scale one), so the
committed baseline must be regenerated with the exact CI invocation.

The bars are deliberately loose: CI runners are noisy shared machines and the
committed baseline comes from a different host, so this gate only catches
catastrophic regressions (an accidental O(n) scan on a hot path, a debug
build slipping into the perf job) and wildly stale baselines, not
percent-level drift. Tighten the margins locally for real A/B work.

Usage:
    check_perf.py --baseline BENCH_hotpath.json --current /tmp/hotpath.json \
        [--max_regression 2.0] [--max_improvement 4.0] [--report]
"""

import argparse
import json
import sys


def load_rows(path):
    """Strict row loader: exits 2 on unreadable/invalid files or malformed rows.

    The perf floor must not be dodgeable by a missing stats file or a renamed
    workload/metric key, so every schema problem is a hard error rather than
    an empty comparison that "passes".
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        sys.exit(f"error: cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        sys.exit(f"error: {path} is not valid JSON: {e}")
    rows = doc.get("rows", [])
    if not rows:
        sys.exit(f"error: {path} has no rows")
    out = {}
    for i, row in enumerate(rows):
        if "workload" not in row:
            sys.exit(f"error: {path} row {i} has no 'workload' key")
        if "sim_mops_per_sec" not in row:
            sys.exit(f"error: {path} row {i} ({row['workload']}) has no 'sim_mops_per_sec' key")
        out[row["workload"]] = row
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, help="committed BENCH_hotpath.json")
    parser.add_argument("--current", required=True, help="freshly generated stats JSON")
    parser.add_argument(
        "--max_regression",
        type=float,
        default=2.0,
        help="fail when baseline/current throughput exceeds this ratio (default 2.0)",
    )
    parser.add_argument(
        "--max_improvement",
        type=float,
        default=4.0,
        help="fail when current/baseline throughput exceeds this ratio without a "
        "baseline refresh (default 4.0); 0 disables the ratchet",
    )
    parser.add_argument("--report", action="store_true", help="print every comparison")
    args = parser.parse_args()

    baseline = load_rows(args.baseline)
    current = load_rows(args.current)

    failures = []
    for workload, base_row in sorted(baseline.items()):
        cur_row = current.get(workload)
        if cur_row is None:
            failures.append(f"{workload}: missing from current run")
            continue
        for key in ("ops", "reps"):
            if base_row.get(key) != cur_row.get(key):
                print(
                    f"error: {workload}: {key} {cur_row.get(key)} in {args.current} differs "
                    f"from {base_row.get(key)} in {args.baseline}; regenerate the baseline "
                    f"with the same invocation",
                    file=sys.stderr,
                )
                return 2
        base = base_row["sim_mops_per_sec"]
        cur = cur_row["sim_mops_per_sec"]
        if cur <= 0:
            failures.append(f"{workload}: nonpositive throughput {cur}")
            continue
        ratio = base / cur
        status = "FAIL" if ratio > args.max_regression else "ok"
        if args.report or status == "FAIL":
            print(
                f"{status:4} {workload}: {cur:.3f} Mops/s vs baseline {base:.3f} "
                f"(slowdown {ratio:.2f}x, limit {args.max_regression:.2f}x)"
            )
        if status == "FAIL":
            failures.append(workload)
            continue
        if args.max_improvement > 0 and cur / base > args.max_improvement:
            print(
                f"FAIL {workload}: {cur:.3f} Mops/s is {cur / base:.2f}x the baseline "
                f"{base:.3f} (ratchet limit {args.max_improvement:.2f}x) — "
                f"refresh {args.baseline} so the floor rises with the gain"
            )
            failures.append(workload)

    # A workload present in the current run but absent from the baseline is
    # ungated — a rename would otherwise slip the floor. Require a baseline
    # refresh instead of silently skipping it.
    for workload in sorted(set(current) - set(baseline)):
        failures.append(f"{workload}: not in baseline (renamed? refresh {args.baseline})")
        print(f"FAIL {workload}: present in current run but not in baseline")

    if failures:
        print(f"{len(failures)} workload(s) regressed past the floor", file=sys.stderr)
        return 1
    print(f"{len(baseline)} workloads within {args.max_regression:.2f}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
