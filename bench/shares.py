#!/usr/bin/env python3
"""Traced shares of single analyze calls too heavy for a benchmark round.

    python3 bench/shares.py [--seed N]

The `finite` and `char0` workloads time only the verdict on these groups
(see stock.py).  For each, this traces one `analyze` call and prints its
wall time, the inclusive time of the structure queries, and the layers
with the most self time.
"""

from __future__ import annotations

import argparse
import sys
from random import Random
from time import perf_counter

from run import import_checkout_nilmat

INCLUSIVE = ("nilpotency.is_nilpotent", "structure.order", "structure.primary_decomposition", "structure.center_generators")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if not import_checkout_nilmat():
        return 2
    import stock
    from nilmat.structure import analyze
    from spans import Tracer

    heavy = [e for build in (stock.finite_stock, stock.char0_stock) for e in build(Random(args.seed)) if not e.analyze]
    for e in heavy:
        tracer = Tracer()
        tracer.install()
        tracer.active = True
        t0 = perf_counter()
        try:
            analyze(e.group)
        finally:
            wall = perf_counter() - t0
            tracer.active = False
            tracer.uninstall()
        table = tracer.collect()
        print(f"{e.label}: analyze {wall:.2f} s traced")
        for name in INCLUSIVE:
            row = table.get(name, {"total_s": 0.0})
            print(f"  {name:<40} {row['total_s']:8.3f} s  {100 * row['total_s'] / wall:5.1f}% inclusive")
        top = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])[:6]
        for name, row in top:
            print(f"  {name:<40} {row['self_s']:8.3f} s  {100 * row['self_s'] / wall:5.1f}% self, {row['calls']} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
