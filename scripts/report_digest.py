#!/usr/bin/env python3
"""A digest of the CLI reports on the benchmark stocks and the test corpora.

    python3 scripts/report_digest.py --seed N > digest.txt
    python3 scripts/report_digest.py --seed N --hashes > tests/data/report-hashes-N.txt

Every group of the `finite`, `char0` and `cli` stocks (bench/stock.py,
drawn at seed N) and of the tests/corpus.py corpora (rational, GF(q) and
GF(p)(X)), plus each finite
rational group conjugated by an integer matrix of determinant 3 (so that
its entries have denominators), is written to a group file and run
through `nilmat.cli` with `--json`, once for each of is-nilpotent, order,
sylow, primary and cr-series.  Each report gives one
line: the group's label, the command, the exit code, and the report as
compact JSON without its `wall_ms` timing (for a nonzero exit, the error
line instead).  Reports are deterministic apart from `wall_ms`, so two
checkouts give identical digests exactly when every report is unchanged,
and `diff` of two digests shows every change.  With `--hashes` each line
ends in the sha256 of that text instead; tests/test_report_hashes.py
holds the reports to the hash files committed for seeds 1 and 101.

Exits 1 when a command exits 2 (a group file the CLI could not read);
budget and capability errors (exit 1) are outputs like any other.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
for sub in ("src", "bench", "tests"):
    sys.path.insert(0, str(ROOT / sub))

import corpus  # noqa: E402
import stock  # noqa: E402
from nilmat import cli  # noqa: E402

COMMANDS = ("is-nilpotent", "order", "sylow", "primary", "cr-series")


def groups(seed):
    """(label, GroupSpec) for every stock and corpus group, in a fixed order."""
    for name, make in (("finite", stock.finite_stock), ("char0", stock.char0_stock), ("cli", stock.cli_stock)):
        for e in make(Random(seed)):
            yield f"{name}/{e.label}", e.group
    base = corpus.rational_corpus()
    conjugates = [c for e in base if e.finite for c in corpus.conjugated_variants(e)]
    for e in base + conjugates:
        yield f"corpus-q/{e.name}", e.group
    for e in corpus.finite_field_corpus():
        yield f"corpus-gf/{e.name}", e.group
    for k in (2, 3):
        yield f"corpus-gf/Q8^{k}-diag", corpus.q8_power_with_diagonal(k)
    yield "corpus-gf/semidihedral(127)", corpus.semidihedral(127)
    # new groups go last: each report names its group file, whose number is the group's place here
    for c in (corpus.denominator_conjugate(e) for e in base if e.finite):
        yield f"corpus-q/{c.name}", c.group
    for e in corpus.function_field_corpus():
        yield f"corpus-ff/{e.name}", e.group


def run(cmd, path):
    """(exit code, the report without wall_ms as compact JSON, or the error line)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([cmd, path, "--json"])
    if code:
        return code, err.getvalue().strip()
    report = json.loads(out.getvalue())
    report.pop("wall_ms", None)
    return code, json.dumps(report, separators=(",", ":"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="seed of the stocks' conjugators")
    parser.add_argument("--hashes", action="store_true", help="print each report's sha256 instead of the report")
    args = parser.parse_args(argv)
    unreadable = 0
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # relative group-file names keep the reports free of the temporary path
        os.chdir(tmp)
        try:
            for i, (label, G) in enumerate(groups(args.seed)):
                path = f"g{i:03d}.json"
                Path(path).write_text(json.dumps(cli.group_to_json(G)))
                for cmd in COMMANDS:
                    code, text = run(cmd, path)
                    unreadable += code == 2
                    if args.hashes:
                        text = hashlib.sha256(text.encode()).hexdigest()
                    print(f"{label}\t{cmd}\t{code}\t{text}", flush=True)
        finally:
            os.chdir(cwd)
    return 1 if unreadable else 0


if __name__ == "__main__":
    sys.exit(main())
