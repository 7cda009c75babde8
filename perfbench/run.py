#!/usr/bin/env python3
"""Runs the repository benchmark: builds `perfbench` from source, runs one
workload (or all of them), checks its outputs, and prints every metric by
name and unit. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when `--trace 0` and the per-layer metrics when
`--trace 1`. The exit code is non-zero when the build fails or any
correctness check fails.

Usage (from the repository root):

    python3 perfbench/run.py --workload relay-chain --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 10 --trace 0

The build goes to `$CARGO_TARGET_DIR` (default `.bench_build`). Untraced
results are kept there too, so that a traced run can print its overhead
against them.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build(env):
    """Builds the benchmark binary; returns its path, or None on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return ROOT / env["CARGO_TARGET_DIR"] / "release" / "perfbench"


def source_id():
    """The commit when run in a git checkout; otherwise a digest of the
    sources the benchmark builds from."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        lines = done.stdout.split()
        if done.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                   cwd=ROOT, capture_output=True, text=True, timeout=10)
            return lines[1] + ("+uncommitted changes" if dirty.stdout.strip() else "")
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "crates",
             ROOT / "vendor", BENCH / "src", BENCH / "Cargo.toml"]
    for top in roots:
        files = [top] if top.is_file() else sorted(p for p in top.rglob("*") if p.is_file())
        for path in files:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run_workload(binary, env, workload, seed, seconds, trace):
    """Runs one workload; returns the binary's report, or None."""
    cmd = [str(binary), workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: {workload} exited with {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def check_names(report, spec):
    """The report must carry exactly the metrics BENCHMARK.json declares."""
    ok = True
    for key, table in (("e2e", "end_to_end"), ("layers", "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[table]}
        got = {name: m["unit"] for name, m in report[key].items()}
        if declared != got:
            print(f"perfbench: {table} metrics differ from BENCHMARK.json: "
                  f"{sorted(set(declared.items()) ^ set(got.items()))}", file=sys.stderr)
            ok = False
    return ok


def print_metrics(title, metrics):
    log(f"--- {title}")
    for name, m in metrics.items():
        log(f"{name:<28} {m['value']:>16.6g} {m['unit']}")


def results_file(env, workload):
    return ROOT / env["CARGO_TARGET_DIR"] / "perfbench-results" / f"{workload}.json"


def remember_untraced(env, workload, report):
    path = results_file(env, workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    runs = json.loads(path.read_text()) if path.exists() else []
    runs = (runs + [{k: m["value"] for k, m in report["e2e"].items()}])[-20:]
    path.write_text(json.dumps(runs))


def print_overhead(env, workload, report):
    """Per end-to-end metric: traced value against the median of the
    untraced runs kept for this workload."""
    path = results_file(env, workload)
    runs = json.loads(path.read_text()) if path.exists() else []
    log(f"--- tracing overhead (traced run vs median of {len(runs)} untraced runs)")
    if not runs:
        log("no untraced run of this workload yet: run it with --trace 0 first")
        return
    for name, m in report["e2e"].items():
        base = statistics.median(r[name] for r in runs if name in r)
        share = (m["value"] - base) / base if base else float("nan")
        log(f"{name:<28} untraced {base:>14.6g}  traced {m['value']:>14.6g}  "
            f"diff {m['value'] - base:>+12.6g} ({share:+.2%})")


# The headline metrics, by the names the benchmark's design uses for them:
# (headline name, workload, "e2e" or "layers", metric in that report).
HEADLINES = [
    ("setup_s", "relay-chain", "e2e", "setup_s"),
    ("setup_s", "wan-storm", "e2e", "setup_s"),
    ("setup_s", "sim-table2", "e2e", "setup_s"),
    ("setup_s", "sim-manyflow", "e2e", "setup_s"),
    ("r5k.lat_p50_us", "relay-chain", "layers", "r5k.lat_p50_us"),
    ("r20k.lat_p50_us", "relay-chain", "layers", "r20k.lat_p50_us"),
    ("r5k.cpu_us_per_pkt", "relay-chain", "layers", "r5k.cpu_us_per_pkt"),
    ("r20k.cpu_us_per_pkt", "relay-chain", "layers", "r20k.cpu_us_per_pkt"),
    ("delivered_frac", "relay-chain", "e2e", "delivered_frac"),
    ("ontime_frac", "wan-storm", "e2e", "ontime_frac"),
    ("lat_p50_ms", "wan-storm", "e2e", "lat_p50_ms"),
    ("lat_p99_ms", "wan-storm", "layers", "lat_p99_ms"),
    ("tx_per_delivered", "wan-storm", "e2e", "tx_per_delivered"),
    ("cpu_us_per_pkt", "wan-storm", "e2e", "cpu_us_per_pkt"),
    ("pkts_per_s", "sim-table2", "e2e", "pkts_per_s"),
    ("flow_pkts_per_s", "sim-manyflow", "e2e", "pkts_per_s"),
]


def print_headlines(reports):
    log("=== headline metrics")
    for headline, workload, key, metric in HEADLINES:
        m = reports[workload][key][metric]
        log(f"{workload + ' ' + headline:<36} {m['value']:>16.6g} {m['unit']}")


def one(binary, env, spec, workload, args, commit):
    report = run_workload(binary, env, workload, args.seed, args.seconds, args.trace)
    if report is None or not check_names(report, spec):
        return None
    log(f"=== {workload} (seed {args.seed}, {args.seconds} s, trace {args.trace})")
    facts = dict(report["facts"], commit=commit)
    for name, value in facts.items():
        log(f"fact {name} = {value}")
    log(f"correct = {report['correct']}, attempted = {report['attempted']}, "
        f"failed = {report['failed']}")
    for v in report["violations"]:
        log(f"CHECK FAILED: {v}")
    print_metrics("end-to-end", report["e2e"])
    if args.trace:
        print_metrics("per-layer", report["layers"])
        print_overhead(env, workload, report)
    elif report["correct"]:
        remember_untraced(env, workload, report)
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names} or all")

    env = dict(os.environ)
    # The overlay runs its default runtime; a DG_RUNTIME left in the
    # environment would silently measure another one.
    env.pop("DG_RUNTIME", None)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = build(env)
    if binary is None:
        return 1
    commit = source_id()

    key = "layers" if args.trace else "e2e"
    if args.workload != "all":
        report = one(binary, env, spec, args.workload, args, commit)
        if report is None:
            return 1
        metrics = report[key]
        correct, attempted, failed = report["correct"], report["attempted"], report["failed"]
    else:
        metrics, correct, attempted, failed, reports = {}, True, 0, 0, {}
        for workload in names:
            report = one(binary, env, spec, workload, args, commit)
            if report is None:
                return 1
            reports[workload] = report
            correct &= report["correct"]
            attempted += report["attempted"]
            failed += report["failed"]
            metrics.update({f"{workload}/{k}": m for k, m in report[key].items()})
        print_headlines(reports)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
