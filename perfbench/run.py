#!/usr/bin/env python3
"""The repository benchmark: one workload of pmemsim, measured and checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which builds the pmemsim library from src/) into
.bench_build/perfbench, runs the workload in its own child process for about
--seconds, checks the simulated outputs, and prints as its last stdout line
one JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end_to_end list; with --trace 1 its
per_layer list. perfbench/NOTES.md describes the workloads and metrics.

Correctness: every rep of a run must produce the same simulated digest; a
serve rep's preload-only twin must end its preload on the same cycle as the
full run; completed + rejected must equal offered; every loaded word must
match the data written. At the default seed the digest and the simulated
results must also equal perfbench/golden.json (--update-golden rewrites it).

Exit status: 0 when the run completed (the JSON says whether it was
correct), 1 when the outputs were wrong, 2 when the benchmark could not run
(nothing is printed on stdout then).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "pmemsim_perfbench")
DEFAULT_SEED = 1
DEFAULT_GOLDEN = os.path.join(HERE, "golden.json")
# Must stay below the 180 s a run may take, with room for an up-to-date build.
CHILD_TIMEOUT_S = 170
# Simulated results the golden pins besides the digest.
GOLDEN_SIM_KEYS = ("ops", "cycles_per_op", "sojourn_p50", "sojourn_p999", "samples",
                   "offered", "completed", "rejected", "not_found")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once and (re)builds the runner; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_child(args, spans_path):
    """Runs the workload in its own process and returns its parsed report."""
    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}", f"--scale={args.scale}",
           f"--spans_out={spans_path}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload process ran longer than {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"workload process exited with status {proc.returncode}")
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        fail("workload process printed nothing")
    return json.loads(lines[-1])


def check(result, golden_entry):
    """Returns the list of correctness failures (empty when correct)."""
    errors = []
    reps = result["reps"]
    sim = result["sim"]
    if len(reps) < 2:
        errors.append(f"only {len(reps)} rep(s); cross-rep identity needs two")
    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        errors.append(f"simulated digest differs across reps: {sorted(digests)}")
    for i, r in enumerate(reps):
        if r["load_cycles"] != r["twin_load_cycles"]:
            errors.append(f"rep {i}: preload-only twin ended its preload at cycle "
                          f"{r['twin_load_cycles']}, the full run at {r['load_cycles']}")
    if sim["completed"] + sim["rejected"] != sim["offered"]:
        errors.append(f"completed {sim['completed']} + rejected {sim['rejected']} != "
                      f"offered {sim['offered']}")
    if not sim["outputs_ok"]:
        errors.append("a loaded value or a traced rep differed from what was expected")
    if golden_entry is not None:
        if reps and reps[0]["digest"] != golden_entry["digest"]:
            errors.append(f"digest {reps[0]['digest']} != golden {golden_entry['digest']}")
        for key in GOLDEN_SIM_KEYS:
            if sim[key] != golden_entry[key]:
                errors.append(f"{key} {sim[key]} != golden {golden_entry[key]}")
    return errors


def end_to_end(result):
    reps = result["reps"]
    sim = result["sim"]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "sim_mops_per_host_s": statistics.median(sim["ops"] / r["timed_s"] / 1e6 for r in reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "peak_rss_mb": result["peak_rss_mb"],
        "sim_cycles_per_op": sim["cycles_per_op"],
        "sim_sojourn_p50_cycles": sim["sojourn_p50"],
        "sim_sojourn_p999_cycles": sim["sojourn_p999"],
        "served_ratio": sim["completed"] / sim["offered"],
    }


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke scale for the self-test")
    parser.add_argument("--golden", default=DEFAULT_GOLDEN)
    parser.add_argument("--update-golden", action="store_true",
                        help="record this run's simulated results as the golden "
                             "(default seed only)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if args.update_golden and args.seed != DEFAULT_SEED:
        fail(f"goldens are recorded at the default seed {DEFAULT_SEED}")

    build()
    spans_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(
        spans_dir, f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json")
    result = run_child(args, spans_path)

    golden = {}
    if os.path.exists(args.golden):
        with open(args.golden) as f:
            golden = json.load(f)
    if args.update_golden:
        entry = {"seed": args.seed, "digest": result["reps"][0]["digest"]}
        entry.update({k: result["sim"][k] for k in GOLDEN_SIM_KEYS})
        golden.setdefault(args.scale, {})[args.workload] = entry
        with open(args.golden, "w") as f:
            json.dump(golden, f, indent=2, sort_keys=True)
            f.write("\n")
    golden_entry = None
    if args.seed == DEFAULT_SEED:
        golden_entry = golden.get(args.scale, {}).get(args.workload)
        if golden_entry is None:
            fail(f"no golden for {args.workload} at scale {args.scale} in {args.golden}")
    errors = check(result, golden_entry)
    for e in errors:
        print(f"perfbench: INCORRECT: {e}", file=sys.stderr)

    if args.trace == 0:
        listed = spec["end_to_end"]
        values = end_to_end(result)
    else:
        listed = spec["per_layer"]
        values = result["layers"]
        unknown = sorted(set(values) - {m["name"] for m in listed})
        if unknown:
            fail(f"workload reported per-layer metrics missing from BENCHMARK.json: {unknown}")
    # A per-layer metric of a layer this workload does not exercise reads 0
    # (NOTES.md lists which apply where).
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in listed}

    sim = result["sim"]
    n = len(result["reps"])
    print(f"{args.workload} seed={args.seed} scale={args.scale} reps={n} "
          f"latency_samples={sim['samples']} digest={result['reps'][0]['digest']} "
          f"spans={spans_path}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sim["offered"] * n,
        "failed": sim["rejected"] * n,
        "metrics": metrics,
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
