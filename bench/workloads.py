"""The four workloads: their set-up, the operations a round times, and the
checks each result must pass.

A check returns a list of problems; an empty list means the output is
correct.  Expected values come from the construction (stock.py), from
formulas, from closures in plain.py, or from properties the method must
have.  No check compares against stored output.
"""

from __future__ import annotations

import io
import json
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import prod
from pathlib import Path
from random import Random
from statistics import median
from typing import Callable

import plain
import stock
# calls go through the module attributes, which the traced run replaces
from nilmat import cli, nilpotency, structure, testkit
from nilmat.verify import verify_report
from nilmat.witness import serialize_witness


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], list]


def kind_metrics(medians_by_kind, spec):
    """Named end-to-end figures from per-operation medians (seconds):
    spec maps a metric name to (kinds, "total" | "p50", unit)."""
    out = {}
    for name, (kinds, how, unit) in spec.items():
        xs = [t for k in kinds for t in medians_by_kind.get(k, [])]
        if not xs:
            continue
        v = sum(xs) if how == "total" else median(xs)
        out[name] = (v * 1000 if unit == "ms" else v, unit)
    return out


# ---------------------------------------------------------------------------
# checks shared by the library workloads

def _witness_problems(witness, G):
    if witness is None:
        return ["negative verdict without a witness"]
    ok, checks = verify_report({"witness": serialize_witness(witness)}, G)
    if ok:
        return []
    return [f"{witness.kind} witness not verified: {[c for c, passed, _ in checks if not passed]}"]


class Expected:
    """Orders of finite stock groups: the formula when the construction
    gives one, else a closure in plain arithmetic, computed once."""

    def __init__(self):
        self._orders = {}

    def order(self, e):
        if e.order is not None:
            return e.order
        if e.label not in self._orders:
            F = plain.field_of(e.group.field.to_json())
            gens = [plain.plain_matrix(F, g) for g in e.group.gens]
            self._orders[e.label] = plain.closure_order(F, gens)
        return self._orders[e.label]


def _plain_views(G):
    """Plain fields to replay products in; function fields are viewed at
    two evaluation points."""
    desc = G.field.to_json()
    if desc["kind"] != "FF":
        return [plain.field_of(desc)]
    points = ("2", "5/3") if desc["base"]["kind"] == "Q" else ("2", "3")
    return [plain.field_of(desc, pt) for pt in points]


def _plain(F, m):
    try:
        return plain.plain_matrix(F, m)
    except ZeroDivisionError:
        return None


def _sylow_problems(e, r, order):
    s = r.primary
    if s is None:
        # only the char-p function-field route leaves infinite groups undecomposed
        return [] if (not e.finite and e.cr is None) else ["no Sylow system"]
    probs = []
    for p, o in s.orders.items():
        if not (plain.is_prime(p) and plain.is_power_of(o, p)):
            probs.append(f"component {p} has order {o}")
    if e.finite:
        if prod(s.orders.values()) != order:
            probs.append(f"component orders {s.orders} do not multiply to {order}")
        if set(s.orders) != set(plain.prime_factors(order)):
            probs.append(f"component primes {sorted(s.orders)} differ from those of {order}")
        F = _plain_views(e.group)[0]
        for p, elts in s.components.items():
            k = plain.prime_factors(order).get(p, 0)
            for x in elts:
                if not plain.is_p_element(F, plain.plain_matrix(F, x.mat), p, k):
                    probs.append(f"component {p} holds an element that is not a {p}-element")
                    break
    elif r.primary_is_extension is not True:
        probs.append("infinite group's primary system is not marked as an extension")
    return probs


def _center_problems(e, r):
    if not r.completely_reducible:
        return []
    if not r.center_gens:
        return ["no center generators"]
    for F in _plain_views(e.group):
        gens = [_plain(F, g) for g in e.group.gens]
        for z in r.center_gens:
            zp = _plain(F, z.mat)
            if zp is None:
                continue
            for g in gens:
                if g is not None and not plain.commute(F, zp, g):
                    return ["a center generator does not commute with a generator"]
    return []


def _verdict_op(e):
    def check(v):
        if v.nilpotent != e.nilpotent:
            return [f"verdict {v.nilpotent}, constructed {e.nilpotent}"]
        return [] if v.nilpotent else _witness_problems(v.witness, e.group)

    return Op("verdict", e.label, lambda: nilpotency.is_nilpotent(e.group), check)


def _analyze_op(e, expected):
    def check(r):
        if not r.nilpotent:
            return ["analyze calls a nilpotent group not nilpotent"]
        probs = []
        order = expected.order(e) if e.finite else None
        if r.finite != e.finite:
            probs.append(f"finite {r.finite}, constructed {e.finite}")
        elif e.finite and r.order != order:
            probs.append(f"order {r.order}, expected {order}")
        if r.completely_reducible != e.cr:
            probs.append(f"completely reducible {r.completely_reducible}, constructed {e.cr}")
        return probs + _sylow_problems(e, r, order) + _center_problems(e, r)

    return Op("analyze", e.label, lambda: structure.analyze(e.group), check)


class LibraryWorkload:
    """is_nilpotent on every group, analyze on every nilpotent one."""

    named = {
        "verdict_total_s": (("verdict",), "total", "s"),
        "verdict_p50_ms": (("verdict",), "p50", "ms"),
        "analyze_total_s": (("analyze",), "total", "s"),
        "analyze_p50_ms": (("analyze",), "p50", "ms"),
    }

    def __init__(self, name, build):
        self.name = name
        self._build = build
        self._expected = Expected()

    def setup(self, seed, workdir):
        return self._build(Random(seed))

    def ops(self, entries):
        out = []
        for e in entries:
            out.append(_verdict_op(e))
            if e.nilpotent and e.analyze:
                out.append(_analyze_op(e, self._expected))
        return out

    def close(self):
        pass


# ---------------------------------------------------------------------------
# cli

_WALL = re.compile(r'"wall_ms": \d+')


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class CliWorkload:
    """nilmat.cli.main in process on small group files, verify-witness on
    every report that carries a witness, one --dir batch, and a few fresh
    `python -m nilmat.cli` processes."""

    name = "cli"
    named = {
        "cli_report_p50_ms": (("cli_report",), "p50", "ms"),
        "verify_p50_ms": (("verify",), "p50", "ms"),
        "cold_start_ms": (("cold_start",), "p50", "ms"),
        "batch_s": (("batch",), "total", "s"),
    }
    COLD_STARTS = 3

    def __init__(self, root, src):
        self._root = root
        self._src = src
        self._seen = {}   # argv -> first report text, wall_ms masked
        self._dir = None

    def setup(self, seed, workdir):
        entries = stock.cli_stock(Random(seed))
        self._dir = workdir / "cli"
        shutil.rmtree(self._dir, ignore_errors=True)
        groups = self._dir / "groups"
        groups.mkdir(parents=True)
        (self._dir / "reports").mkdir()
        for e in entries:
            (groups / f"{e.label}.json").write_text(json.dumps(cli.group_to_json(e.group), indent=2) + "\n")
        return entries

    def close(self):
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)

    def _same_as_before(self, argv, text):
        masked = _WALL.sub('"wall_ms": 0', text)
        first = self._seen.setdefault(tuple(argv), masked)
        return [] if first == masked else ["report differs from an earlier run of the same command"]

    def _report_op(self, e, cmd, path, check):
        argv = [cmd, str(path), "--json"]
        witness_file = self._dir / "reports" / f"{e.label}.{cmd}.json"

        def full_check(result):
            code, text = result
            if code != 0:
                return [f"exit code {code}"]
            report = json.loads(text)
            if report.get("witness"):
                witness_file.write_text(text)
            return check(report) + self._same_as_before(argv, text)

        return Op("cli_report", f"{cmd} {e.label}", lambda: _in_process(argv), full_check)

    def _verify_op(self, label, report_file):
        argv = ["verify-witness", str(report_file), "--json"]

        def check(result):
            code, text = result
            if code != 0 or json.loads(text).get("verified") is not True:
                return [f"verify-witness exit {code} on {report_file.name}"]
            return []

        return Op("verify", label, lambda: _in_process(argv), check)

    def _cold_op(self, e, path):
        argv = ["is-nilpotent", str(path), "--json"]
        cmd = [sys.executable, "-m", "nilmat.cli"] + argv
        env = {"PYTHONPATH": str(self._src), "PATH": "/usr/bin:/bin"}

        def call():
            return subprocess.run(cmd, cwd=self._root, env=env, capture_output=True, text=True, timeout=120)

        def check(proc):
            if proc.returncode != 0:
                return [f"exit code {proc.returncode}: {proc.stderr.strip()[:200]}"]
            return self._same_as_before(argv, proc.stdout)

        return Op("cold_start", e.label, call, check)

    def ops(self, entries):
        groups = self._dir / "groups"
        reports = self._dir / "reports"
        by_file = {f"{e.label}.json": e for e in entries}
        out, verifies = [], []
        for e in entries:
            path = groups / f"{e.label}.json"
            out.append(self._report_op(e, "is-nilpotent", path, lambda r, e=e: _cli_verdict_problems(e, r)))
            if not e.nilpotent:
                verifies.append(self._verify_op(f"is-nilpotent {e.label}", reports / f"{e.label}.is-nilpotent.json"))
            else:
                out.append(self._report_op(e, "order", path, lambda r, e=e: _cli_order_problems(e, r)))
                out.append(self._report_op(e, "sylow", path, lambda r, e=e: _cli_sylow_problems(e, r)))
                if not e.finite:
                    verifies.append(self._verify_op(f"order {e.label}", reports / f"{e.label}.order.json"))
            if e.semisimple and e.group.field.to_json()["kind"] != "GF":
                out.append(self._report_op(e, "reduce", path, lambda r, e=e: _cli_reduce_problems(e, r)))
        batch_argv = ["is-nilpotent", "--dir", str(groups)]

        def batch_check(result):
            code, text = result
            if code != 0:
                return [f"exit code {code}"]
            probs = []
            for report in json.loads(text):
                e = by_file[Path(report["group_file"]).name]
                probs += _cli_verdict_problems(e, report)
            return probs + self._same_as_before(batch_argv, text)

        out += verifies
        out.append(Op("batch", "is-nilpotent --dir", lambda: _in_process(batch_argv), batch_check))
        out += [self._cold_op(e, groups / f"{e.label}.json") for e in entries[: self.COLD_STARTS]]
        return out


def _cli_verdict_problems(e, report):
    got = report.get("verdict", {}).get("nilpotent")
    if got != e.nilpotent:
        return [f"{e.label}: verdict {got}, constructed {e.nilpotent}"]
    if not e.nilpotent and not report.get("witness"):
        return [f"{e.label}: negative report without a witness"]
    return []


def _cli_order_problems(e, report):
    v = report.get("verdict", {})
    if v.get("nilpotent") is not True or v.get("finite") != e.finite:
        return [f"{e.label}: verdict {v}, constructed finite={e.finite}"]
    if e.finite and v.get("order") != e.order:
        return [f"{e.label}: order {v.get('order')}, expected {e.order}"]
    if not e.finite and not report.get("witness"):
        return [f"{e.label}: infinite verdict without a witness"]
    return []


def _cli_sylow_problems(e, report):
    syl = report.get("sylow")
    if syl is None:
        # the char-p function-field route may decline with a typed error, reported as a note
        return [] if report.get("notes") else [f"{e.label}: no Sylow system and no note"]
    orders = {int(p): c["order"] for p, c in syl["components"].items()}
    probs = [f"{e.label}: component {p} has order {o}" for p, o in orders.items() if not plain.is_power_of(o, p)]
    if e.finite and prod(orders.values()) != e.order:
        probs.append(f"{e.label}: component orders {orders} do not multiply to {e.order}")
    return probs


def _cli_reduce_problems(e, report):
    cd, image = report.get("congruence", {}), report.get("image", {})
    p = cd.get("p")
    if report.get("verdict", {}).get("reduced") is not True or not plain.is_prime(p or 0):
        return [f"{e.label}: no valid reduction prime in {report.get('verdict')}"]
    gens = image.get("generators", [])
    if len(gens) != len(e.group.gens) or int(image["field"]["p"]) != p:
        return [f"{e.label}: image does not match the input"]
    if e.group.field.to_json()["kind"] == "Q" and int(image["field"].get("l", 1)) == 1:
        for g, h in zip(e.group.gens, gens):
            want = [[plain.reduce_rational(e.group.field.format(c), p) for c in row] for row in g.rows]
            if want != [[int(c) for c in row] for row in h]:
                return [f"{e.label}: image entries are not the input reduced mod {p}"]
    return []


# ---------------------------------------------------------------------------
# oracle

class OracleWorkload:
    """testkit.closure and oracle_invariants on finite groups on both sides
    of the literal / normal-closure switch."""

    name = "oracle"
    named = {"oracle_total_s": (("closure", "oracle_invariants"), "total", "s")}
    CAP = 10**5

    def setup(self, seed, workdir):
        return stock.oracle_stock(Random(seed))

    def ops(self, entries):
        out = []
        for e in entries:
            state = {}

            def close(e=e, state=state):
                state["c"] = testkit.closure(e.gens, self.CAP)
                return state["c"]

            def check_closure(c, e=e):
                if c.overflowed or len(c) != e.order:
                    return [f"{e.label}: closure of {len(c)} elements, expected {e.order}"]
                return []

            def check_invariants(inv, e=e):
                want = {"order": e.order, "nilpotent": e.nilpotent, "class": e.klass, "center": e.center}
                return [] if inv == want else [f"{e.label}: {inv}, expected {want}"]

            out.append(Op("closure", e.label, close, check_closure))
            out.append(Op("oracle_invariants", e.label, lambda state=state: testkit.oracle_invariants(state["c"]), check_invariants))
        return out

    def close(self):
        pass


def make(name, root, src):
    if name == "finite":
        return LibraryWorkload("finite", stock.finite_stock)
    if name == "char0":
        return LibraryWorkload("char0", stock.char0_stock)
    if name == "cli":
        return CliWorkload(root, src)
    if name == "oracle":
        return OracleWorkload()
    raise KeyError(name)

