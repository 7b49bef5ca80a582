#!/usr/bin/env python3
"""nilmat benchmark.

    python3 bench/run.py --workload {finite,char0,cli,oracle} --seed N --seconds S --trace {0,1}

Imports nilmat from the `src` directory next to this one and fails (exit
2, no result) when it is missing.  Whole rounds of the workload's
operations run, one thread, until another round would end past S seconds
(at least one round).  Every result is checked; an operation whose call
raises or whose check fails counts as failed.  Set-up runs seven times
before the first round and seven times after each, and its median is
reported; the set-ups between rounds only spread the samples over the run.
Every time is scaled to a reference speed of the host (clock.py): the
host is shared and its speed drifts, and a fixed piece of work timed
around each call tracks the drift.  Wall times and the timings of the
reference work go to the detail file.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 untraced and traced rounds alternate and it carries the
per-layer metrics (medians over traced rounds) and the tracing overhead.
Details, and with --trace 1 the spans, go to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPS = 7   # set-ups before the first round and again after every round
WORKLOADS = ("finite", "char0", "cli", "oracle")

END_TO_END_UNITS = {"setup_s": "s", "total_s": "s", "op_geomean_ms": "ms", "peak_rss_mb": "MB"}

# traced name -> the fields reported as per-layer metrics "<name>.<field>";
# linalg.matmul_us.* and trace.overhead_s are measured apart
_TRACED = (
    ("linalg.matmul", ("calls", "self_s")),
    ("linalg.inverse", ("calls", "self_s")),
    ("linalg.minimal_polynomial", ("calls", "self_s")),
    ("poly.factor", ("calls", "self_s")),
    ("splitting.reduction_split", ("calls", "self_s")),
    ("splitting.jordan", ("calls", "self_s")),
    ("splitting.finite_order", ("calls", "self_s")),
    ("congruence.select_modulus", ("calls", "self_s")),
    ("congruence.apply_congruence", ("calls", "self_s")),
    ("congruence.finite_image_presentation", ("self_s", "vertices", "relators")),
    ("congruence.kernel_normal_generators", ("self_s", "kernel_gens")),
    ("congruence.kernel_is_central", ("self_s",)),
    ("congruence.schreier_kernel_generators", ("self_s", "vertices")),
    ("nilpotency.test_series", ("self_s", "depth")),
    ("nilpotency.centralizer_of_abelian", ("self_s",)),
    ("nilpotency.is_finite_nilpotent", ("self_s",)),
    ("nilpotency.adjoint_rep", ("self_s",)),
    ("nilpotency.is_nilpotent_adjoint", ("self_s",)),
    ("testkit.closure_elts", ("self_s", "elements")),
    ("testkit.closure", ("calls", "self_s", "elements")),
    ("testkit.oracle_invariants", ("calls", "self_s")),
    ("structure.is_finite", ("self_s",)),
    ("structure.order", ("self_s",)),
    ("structure.primary_decomposition", ("self_s",)),
    ("structure.center_generators", ("self_s",)),
    ("cli.parse_group_file", ("self_s",)),
    ("cli.run_command", ("self_s",)),
    ("witness.serialize_witness", ("self_s",)),
    ("verify.verify_report", ("self_s",)),
)
PER_LAYER = {f"{name}.{field}": (name, field) for name, fields in _TRACED for field in fields}
MATMUL_FIELDS = ("gf3", "gf101", "gf9", "gf125", "q", "nf")


def _unit(field):
    return "s" if field.endswith("_s") else "count"


def run(workload, seed, seconds, trace):
    import workloads
    from clock import Clock
    from spans import Tracer, matmul_us

    wl = workloads.make(workload, ROOT, SRC)
    OUT.mkdir(exist_ok=True)
    clock = Clock()
    setup_spans = []

    def set_up():
        for _ in range(SETUP_REPS):
            gc.collect()
            entries, error, span = clock.time(lambda: wl.setup(seed, OUT))
            if error is not None:
                raise error
            setup_spans.append(span)
        return entries

    ops = wl.ops(set_up())

    tracer = Tracer() if trace else None
    micro = matmul_us(seed) if trace else {}
    spans = [[] for _ in ops]        # (start, end) of each passing call in the untraced rounds
    round_spans = {False: [], True: []}   # the spans of each round, untraced / traced
    tables = []
    attempted = failed = 0
    correct = True
    problems = []
    start = perf_counter()
    rounds = 0
    try:
        while True:
            for traced in ((False, True) if trace else (False,)):
                gc.collect()
                if traced:
                    tracer.install()
                round_spans[traced].append([])
                for i, op in enumerate(ops):
                    attempted += 1
                    if traced:
                        tracer.op_id, tracer.active = i, True
                    result, exc, span = clock.time(op.call)
                    # any failure of the program counts the operation as failed
                    error = None if exc is None else f"{type(exc).__name__}: {exc}"
                    if traced:
                        tracer.active = False
                    round_spans[traced][-1].append(span)
                    if error is None:
                        try:
                            bad = op.check(result)
                        except Exception as e:  # a malformed output fails its check
                            bad = [f"check raised {type(e).__name__}: {e}"]
                        if bad:
                            correct = False
                            error = "; ".join(bad)
                    if error is not None:
                        failed += 1
                        if len(problems) < 50:
                            problems.append(f"{op.kind} {op.label}: {error}")
                    elif not traced:
                        spans[i].append(span)
                if traced:
                    tracer.uninstall()
                    tables.append(tracer.collect())
            rounds += 1
            set_up()
            elapsed = perf_counter() - start
            if elapsed * (rounds + 1) / rounds > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.close()

    samples = [[clock.scaled(s) for s in op_spans] for op_spans in spans]
    setup_times = [clock.scaled(s) for s in setup_spans]
    work = {traced: [sum(clock.scaled(s) for s in r) for r in per_round] for traced, per_round in round_spans.items()}
    per_op = [(op, statistics.median(s)) for op, s in zip(ops, samples) if s]
    by_kind = {}
    for op, t in per_op:
        by_kind.setdefault(op.kind, []).append(t)
    times = [t for _, t in per_op]
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "total_s": sum(times) if times else float("nan"),
        "op_geomean_ms": math.exp(statistics.fmean(math.log(t) for t in times)) * 1000 if times else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    named = workloads.kind_metrics(by_kind, wl.named)

    if trace:
        metrics = {}
        for key, (name, field) in PER_LAYER.items():
            value = statistics.median([t.get(name, {}).get(field, 0) for t in tables])
            metrics[key] = {"value": value, "unit": _unit(field)}
        for key in MATMUL_FIELDS:
            metrics[f"linalg.matmul_us.{key}"] = {"value": micro[key], "unit": "us"}
        metrics["trace.overhead_s"] = {"value": statistics.median(work[True]) - statistics.median(work[False]), "unit": "s"}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}

    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "rounds": rounds,
        "round_work_s": work,
        "setup_s": setup_times,
        "setup_wall_s": [b - a for a, b in setup_spans],
        "end_to_end": end_to_end,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "operations": [
            {"kind": op.kind, "label": op.label, "median_s": statistics.median(s) if s else None, "samples_s": s, "wall_s": [b - a for a, b in w]}
            for op, s, w in zip(ops, samples, spans)
        ],
        "problems": problems,
        "reference_s": {"at": clock.at, "took": clock.took},
        "call_spans_s": spans,
        "metrics": metrics,
    }
    if trace:
        detail["spans"] = tracer.spans
        detail["span_fields"] = ["id", "parent", "op", "name", "start", "end"]
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(detail))

    print(f"{workload}: seed {seed}, {rounds} round(s) of {len(ops)} operations, {attempted} attempted, {failed} failed")
    for line in problems:
        print(f"  FAILED {line}")
    for name, (v, unit) in named.items():
        print(f"  {name:<20} {v:12.4f} {unit}")
    for name, v in end_to_end.items():
        print(f"  {name:<20} {v:12.4f} {END_TO_END_UNITS[name]}")
    if trace:
        for name, m in metrics.items():
            print(f"  {name:<48} {m['value']:14.6f} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser(description="nilmat benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not import_checkout_nilmat():
        return 2
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


def import_checkout_nilmat():
    """Import nilmat from this checkout's src; False (and a message) if absent."""
    if not (SRC / "nilmat" / "__init__.py").is_file():
        print(f"error: no nilmat sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import nilmat

    if Path(nilmat.__file__).resolve().parent != (SRC / "nilmat").resolve():
        print(f"error: imported nilmat from {nilmat.__file__}, not from {SRC}", file=sys.stderr)
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
