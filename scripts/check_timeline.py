#!/usr/bin/env python3
"""Validate a pmemsim_serve --timeline_json artifact.

The serve timeline's contract (src/trace/serve_metrics.h) is that the
per-window series is a *partition* of the serve phase: windows tile
[serve_start, end) contiguously with only the final window partial, every
completed/admitted/shed event lands in exactly one window, and the global
per-window view is the exact field-wise merge of the per-shard views. This
script gates those identities in CI from the outside, using only the JSON
artifacts:

  * --timeline: the --timeline_json file ({"points": [...]});
  * --stats:    optionally, the same run's --stats_json report, whose "serve"
                section's whole-run totals must agree with the timeline's.

Checks performed, per point:
  1. schema: config/serve_start/end/truncated/totals/global/shards present,
     every window has index/t_begin/t_end/partial/completed/admitted/shed/
     queue_depth/sojourn_p50|p99|p999;
  2. contiguity: sequential indices, t_begin == previous t_end, first window
     starts at serve_start, last window ends at end, only the last window may
     be partial — for the global series and every shard series;
  3. conservation: per-index global counts == sum over shards, whole-run
     totals == sum over global windows;
  4. quantile sanity: p50 <= p99 <= p999 in every window with completions,
     null quantiles exactly when a window has no completions;
  5. SLO consistency (when present): violations == count of windows with
     slo_violation, burn_rate == violations / windows_with_traffic;
  6. truncated must be false unless --allow-truncated;
  7. memory-plane join: every global window carries "mem"; in an
     "interleaved" point (one shared System) no shard window does, and in a
     "partitioned" point (one System per shard) every shard window does and
     each integer "mem" field of a global window equals the sum over its
     shards. A truncated point may lack series it never attached, so only
     the sum is checked there.

Usage:
    check_timeline.py --timeline /tmp/serve_timeline.json \
        [--stats /tmp/serve_stats.json] [--allow-truncated] [--report]
"""

import argparse
import json
import sys

REQUIRED_POINT_KEYS = (
    "schema_version",
    "config",
    "serve_start",
    "end",
    "truncated",
    "totals",
    "global",
    "shards",
)
REQUIRED_CONFIG_KEYS = ("mix", "loop", "store", "engine", "shards", "interval_cycles")
REQUIRED_WINDOW_KEYS = (
    "index",
    "t_begin",
    "t_end",
    "partial",
    "completed",
    "admitted",
    "shed",
    "queue_depth",
    "sojourn_p50",
    "sojourn_p99",
    "sojourn_p999",
)
MERGED_COUNT_KEYS = ("completed", "admitted", "shed", "queue_depth")
MEM_INT_KEYS = (
    "imc_read_bytes",
    "imc_write_bytes",
    "media_read_bytes",
    "media_write_bytes",
    "wpq_stall_cycles",
    "read_buffer_entries",
    "write_buffer_entries",
    "serve_queue_depth",
)


def fail(msg):
    sys.exit(f"error: {msg}")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")


def check_series(label, windows, serve_start, end, interval):
    """Schema + contiguity for one window series (global or one shard)."""
    if not windows:
        fail(f"{label}: empty window series")
    prev_end = None
    for i, w in enumerate(windows):
        for key in REQUIRED_WINDOW_KEYS:
            if key not in w:
                fail(f"{label} window {i}: missing key {key!r}")
        if w["index"] != i:
            fail(f"{label} window {i}: non-sequential index {w['index']}")
        if prev_end is not None and w["t_begin"] != prev_end:
            fail(
                f"{label} window {i}: t_begin {w['t_begin']} != previous t_end "
                f"{prev_end} (gap/overlap)"
            )
        if w["t_end"] < w["t_begin"]:
            fail(f"{label} window {i}: t_end {w['t_end']} < t_begin {w['t_begin']}")
        width = w["t_end"] - w["t_begin"]
        if i + 1 < len(windows):
            if w["partial"]:
                fail(f"{label} window {i}: marked partial but is not the final window")
            if width != interval:
                fail(f"{label} window {i}: width {width} != interval_cycles {interval}")
        else:
            if w["partial"] != (width < interval):
                fail(f"{label} window {i}: partial flag inconsistent with width {width}")
        quantiles = [w["sojourn_p50"], w["sojourn_p99"], w["sojourn_p999"]]
        if w["completed"] == 0:
            if any(q is not None for q in quantiles):
                fail(f"{label} window {i}: quantiles must be null with 0 completions")
        else:
            if any(q is None for q in quantiles):
                fail(f"{label} window {i}: null quantile with {w['completed']} completions")
            if not quantiles[0] <= quantiles[1] <= quantiles[2]:
                fail(f"{label} window {i}: non-monotone quantiles {quantiles}")
    if windows[0]["t_begin"] != serve_start:
        fail(f"{label}: first window begins at {windows[0]['t_begin']}, not serve_start "
             f"{serve_start}")
    if windows[-1]["t_end"] != end:
        fail(f"{label}: last window ends at {windows[-1]['t_end']}, not end {end}")


def check_mem_join(label, engine, g, shards, truncated):
    """The memory-plane join: which series carry "mem", and the global sum."""
    if engine not in ("interleaved", "partitioned"):
        fail(f"{label}: unknown engine {engine!r}")
    partitioned = engine == "partitioned"
    if not truncated:
        for i, win in enumerate(g):
            if "mem" not in win:
                fail(f"{label} global window {i}: no memory-plane series joined")
        for s in shards:
            for i, w in enumerate(s["windows"]):
                if ("mem" in w) != partitioned:
                    fail(
                        f"{label} shard {s['shard']} window {i}: per-shard mem must "
                        f"appear exactly in a partitioned point ({engine})"
                    )
    if not partitioned:
        return
    for i, win in enumerate(g):
        if "mem" not in win:
            continue
        for key in MEM_INT_KEYS:
            total = sum(s["windows"][i].get("mem", {}).get(key, 0) for s in shards)
            if win["mem"][key] != total:
                fail(
                    f"{label} window {i}: global mem.{key} {win['mem'][key]} != sum "
                    f"over shards {total}"
                )


def check_point(idx, point, allow_truncated):
    for key in REQUIRED_POINT_KEYS:
        if key not in point:
            fail(f"point {idx}: missing key {key!r}")
    cfg = point["config"]
    for key in REQUIRED_CONFIG_KEYS:
        if key not in cfg:
            fail(f"point {idx}: config missing key {key!r}")
    if "engine_threads" in json.dumps(point):
        fail(f"point {idx}: artifact must not name engine_threads (byte-compare contract)")
    if point["truncated"] and not allow_truncated:
        fail(f"point {idx}: timeline is truncated (pass --allow-truncated to accept)")

    label = f"point {idx} (mix={cfg['mix']},loop={cfg['loop']})"
    interval = cfg["interval_cycles"]
    serve_start, end = point["serve_start"], point["end"]
    g = point["global"]["windows"]
    check_series(f"{label} global", g, serve_start, end, interval)

    shards = point["shards"]
    if len(shards) != cfg["shards"]:
        fail(f"{label}: {len(shards)} shard series for config.shards {cfg['shards']}")
    for s in shards:
        sw = s["windows"]
        check_series(f"{label} shard {s['shard']}", sw, serve_start, end, interval)
        if len(sw) != len(g):
            fail(f"{label} shard {s['shard']}: {len(sw)} windows vs {len(g)} global")

    # Per-window conservation: the global view is the exact shard merge.
    for i, win in enumerate(g):
        for key in MERGED_COUNT_KEYS:
            total = sum(s["windows"][i][key] for s in shards)
            if win[key] != total:
                fail(
                    f"{label} window {i}: global {key} {win[key]} != sum over shards {total}"
                )

    check_mem_join(label, cfg["engine"], g, shards, point["truncated"])

    # Whole-run conservation: totals are the column sums of the global series.
    totals = point["totals"]
    for key in ("completed", "admitted", "shed"):
        col = sum(w[key] for w in g)
        if totals[key] != col:
            fail(f"{label}: totals.{key} {totals[key]} != sum over windows {col}")

    # SLO consistency.
    slo = point.get("slo")
    if slo is not None:
        marked = sum(1 for w in g if w.get("slo_violation"))
        if slo["violations"] != marked:
            fail(f"{label}: slo.violations {slo['violations']} != marked windows {marked}")
        if slo["windows"] != len(g):
            fail(f"{label}: slo.windows {slo['windows']} != window count {len(g)}")
        traffic = sum(1 for w in g if w["completed"] > 0)
        if slo["windows_with_traffic"] != traffic:
            fail(
                f"{label}: slo.windows_with_traffic {slo['windows_with_traffic']} != "
                f"{traffic}"
            )
        expected_burn = slo["violations"] / traffic if traffic else 0.0
        if abs(slo["burn_rate"] - expected_burn) > 1e-9:
            fail(f"{label}: burn_rate {slo['burn_rate']} != {expected_burn}")
    return totals


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--timeline", required=True, help="--timeline_json artifact")
    parser.add_argument(
        "--stats", help="optional --stats_json report to cross-check whole-run totals"
    )
    parser.add_argument(
        "--allow-truncated",
        action="store_true",
        help="accept truncated timelines (failed-point flush artifacts)",
    )
    parser.add_argument("--report", action="store_true", help="print per-point summaries")
    args = parser.parse_args()

    artifact = load_json(args.timeline)
    points = artifact.get("points")
    if artifact.get("bench") != "pmemsim_serve" or not isinstance(points, list) or not points:
        fail(f"{args.timeline}: not a pmemsim_serve timeline artifact")

    serve_sections = None
    if args.stats:
        stats = load_json(args.stats)
        serve_sections = stats.get("serve")
        if not isinstance(serve_sections, list) or len(serve_sections) != len(points):
            fail(f"{args.stats}: 'serve' section missing or misaligned with timeline points")

    checked = 0
    for idx, point in enumerate(points):
        if point is None:
            if not args.allow_truncated:
                fail(f"point {idx}: null (point failed before any flush)")
            continue
        totals = check_point(idx, point, args.allow_truncated)
        if serve_sections is not None and serve_sections[idx] is not None:
            serve = serve_sections[idx]
            expected = serve["global"]
            if totals["completed"] != expected["completed"]:
                fail(
                    f"point {idx}: timeline completed {totals['completed']} != serve "
                    f"section {expected['completed']}"
                )
        if args.report:
            cfg = point["config"]
            print(
                f"point {idx}: mix={cfg['mix']} loop={cfg['loop']} "
                f"windows={len(point['global']['windows'])} "
                f"completed={totals['completed']} shed={totals['shed']}"
            )
        checked += 1

    print(
        f"{checked} timeline point(s): contiguity, conservation, merge and memory-plane "
        "join identities hold"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
