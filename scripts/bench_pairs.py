#!/usr/bin/env python3
"""Paired benchmark runs of two commits, written as a BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent REV --change REV --out BENCH_24.json
        [--pairs 10] [--seed 101] [--workloads char0 ...]

Each commit is extracted with `git archive` into its own fresh directory
under a temporary one, and its `src` and `bench` are compiled to bytecode
before any run: a tree whose bytecode is missing or stale compiles at
import, which raises `peak_rss_mb`.  For every workload declared in
BENCHMARK.json, `bench/run.py` then runs `--pairs` times (at least 10) in
each copy, alternating, with the parent first in even pairs and the change
first in odd ones.  Every run lasts the benchmark's `run_seconds`.

The output names, per workload and end-to-end metric, every run's value,
the two medians and quartiles, and the pairs the change won (ties count
for neither side), plus each run's failed and attempted operations, the
host's CPU count, the Python version, the seed and both commit ids.
Exits 1 when a run fails or reports an incorrect result.
"""

from __future__ import annotations

import argparse
import compileall
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a gain is judged on at least ten pairs of runs
MIN_PAIRS = 10


def commit_id(rev):
    return subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(commit, dest):
    """A fresh copy of the commit's files in dest, its sources compiled."""
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        # the extraction filter exists from Python 3.10.12 and 3.11.4
        t.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    for sub in ("src", "bench"):
        if not compileall.compile_dir(str(dest / sub), quiet=1):
            raise SystemExit(f"error: {commit} does not compile under {sub}/")


def run_once(copy, workload, seed, seconds):
    """The metrics line of one benchmark run in a copy."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=copy,
        capture_output=True,
        text=True,
    )
    if proc.returncode:
        raise SystemExit(f"error: {workload} in {copy} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="paired benchmark runs of two commits")
    ap.add_argument("--parent", default="HEAD^")
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    if args.pairs < MIN_PAIRS:
        ap.error(f"--pairs must be at least {MIN_PAIRS}")

    commits = {"parent": commit_id(args.parent), "change": commit_id(args.change)}
    metrics = spec["end_to_end"]
    workloads = {}
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        copies = {}
        for side, commit in commits.items():
            copies[side] = Path(tmp) / side
            extract(commit, copies[side])
        for w in args.workloads:
            results = {"parent": [], "change": []}
            for i in range(args.pairs):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    r = run_once(copies[side], w, args.seed, spec["run_seconds"])
                    ok &= bool(r["correct"])
                    results[side].append(r)
                    m = {k: round(v["value"], 6) for k, v in r["metrics"].items()}
                    print(f"{w} pair {i} {side}: {m} failed {r['failed']}/{r['attempted']}", file=sys.stderr)
            out = {
                key: {side: [r[key] for r in rs] for side, rs in results.items()} for key in ("failed", "attempted")
            }
            out["metrics"] = {}
            for metric in metrics:
                name = metric["name"]
                vals = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in results.items()}
                sign = -1 if metric["better"] == "lower" else 1
                wins = sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"]))
                out["metrics"][name] = {
                    "unit": metric["unit"],
                    "better": metric["better"],
                    "parent": summary(vals["parent"]),
                    "change": summary(vals["change"]),
                    "change_wins": wins,
                }
            workloads[w] = out

    report = {
        "command": spec["command"],
        "seed": args.seed,
        "seconds": spec["run_seconds"],
        "pairs": args.pairs,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "commits": commits,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for w, out in workloads.items():
        for metric in metrics:
            m = out["metrics"][metric["name"]]
            print(
                f"{w:<7} {metric['name']:<14} parent {m['parent']['median']:.4f} change {m['change']['median']:.4f}"
                f" {metric['unit']}, change wins {m['change_wins']}/{args.pairs}"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
