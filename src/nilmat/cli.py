"""File-driven command line front end.

Group files are JSON: {"field": {...}, "generators": [[...], ...]} with
string-encoded exact entries.  Reports are JSON with schema "nilmat/1";
given the same file and flags they are byte-identical across runs except
for the wall_ms timing field.  Exit codes: 0 analysis completed (the
verdict, positive or negative, is in the report), 1 typed budget or
capability error, 2 usage or parse error.  Every nilpotency, finiteness,
order, Sylow and primary query is decided over every supported field, so
exit 1 is a budget that ran out (CapExceeded, NoPrimeInRange) or a
complete-reducibility query over GF(q)(X), which is refused
(ImperfectField).  A budget that runs out is that exit 1, so a report's
budgets_hit list is empty; the congruence checks (such as
checks.image_semisimple over GF(q)(X)) describe the reduction and are
reported under congruence, not as budgets.  When the Jordan split over
GF(q)(X) was taken over GF(q)(Y), X = Y^(p^k) with k > 0, the report
states p^k as split_root_power, and the matrices built from the split
(witness items, the congruence data, an infinite group's Sylow
components) have their entries in Y.

The fixed costs of a call are paid once per process: the argument parser
is built on first use, field descriptors are memoized by
`fields.field_from_json`, and the oracle and corpus generators are imported
only by the commands that run them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .config import DEFAULT, Config
from .congruence import apply_congruence_group, select_modulus
from .errors import (
    CapExceeded,
    ImperfectField,
    NilmatError,
    NoPrimeInRange,
    ParseError,
    SingularGenerator,
)
from .fields import FunctionField, field_from_json
from .groups import GroupSpec
from .linalg import Matrix
from .nilpotency import is_nilpotent
from .numth import is_prime
from .structure import analyze
from .verify import verify_report
from .witness import serialize_matrix, serialize_witness

COMMANDS = (
    "is-nilpotent",
    "is-finite",
    "order",
    "sylow",
    "primary",
    "is-completely-reducible",
    "cr-series",
    "reduce",
    "gen",
    "oracle",
    "verify-witness",
)

SCHEMA = "nilmat/1"


def parse_group_json(data, seed=0) -> GroupSpec:
    if not isinstance(data, dict):
        raise ParseError("group file must be a JSON object")
    if "field" not in data or "generators" not in data:
        raise ParseError("group file needs 'field' and 'generators'")
    field = field_from_json(data["field"], seed=seed)
    gens = []
    raw = data["generators"]
    if not isinstance(raw, list):
        raise ParseError("'generators' must be an array of matrices")
    for gi, rows in enumerate(raw):
        if not isinstance(rows, list) or not rows:
            raise ParseError(f"generator {gi} is not a matrix")
        n = len(rows)
        parsed = []
        for ri, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n:
                raise ParseError(f"generator {gi} is not square (row {ri})")
            parsed.append([field.parse(c) for c in row])
        gens.append(Matrix.make(field, parsed))
    return GroupSpec(field, gens)


def parse_group_file(path, seed=0) -> GroupSpec:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    return parse_group_json(data, seed=seed)


def group_to_json(G: GroupSpec) -> dict:
    return {
        "field": G.field.to_json(),
        "generators": [[[G.field.format(c) for c in row] for row in g.rows] for g in G.gens],
    }


def _serialize_elts(elts):
    return [
        {"matrix": serialize_matrix(e.mat), "word": [[i, x] for i, x in e.word]}
        for e in elts
    ]


def _serialize_sylow(sylow, extension=False):
    if sylow is None:
        return None
    out = {
        "components": {
            str(p): {"order": sylow.orders.get(p), "generators": _serialize_elts(sylow.components[p])}
            for p in sorted(sylow.components)
        },
        "extension_of_finite_notion": extension,
    }
    if sylow.central_part:
        out["central_part"] = _serialize_elts(sylow.central_part)
    return out


def _config_from_args(args) -> Config:
    cfg = DEFAULT
    updates = {}
    if getattr(args, "prime", None) is not None:
        updates["prime_override"] = args.prime
    if getattr(args, "cap", None) is not None:
        updates["closure_cap"] = args.cap
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    return cfg.with_(**updates) if updates else cfg


def run_command(cmd: str, G: GroupSpec, config: Config = DEFAULT, group_file=None) -> dict:
    """Execute one analysis command; returns the report dictionary."""
    t0 = time.monotonic()
    report = {
        "schema": SCHEMA,
        "command": cmd,
        "group_file": str(group_file) if group_file else None,
        "field": G.field.to_json(),
        "degree": G.degree,
        "n_generators": len(G.gens),
        "flags": {
            "prime": config.prime_override,
            "closure_cap": config.closure_cap,
            "seed": config.seed,
        },
        "budgets_hit": [],
        "witness": None,
    }
    if cmd == "is-nilpotent":
        v = is_nilpotent(G, config)
        report["verdict"] = {"nilpotent": v.nilpotent}
        if "root_power" in v.artifacts:
            report["split_root_power"] = v.artifacts["root_power"]
        if v.witness is not None:
            report["witness"] = serialize_witness(v.witness)
        cd = v.artifacts.get("congruence")
        if cd is not None:
            report["congruence"] = cd.to_json()
        if "image_order" in v.artifacts:
            report["image_order"] = v.artifacts["image_order"]
    elif cmd in ("is-finite", "order", "sylow", "primary", "is-completely-reducible", "cr-series"):
        if cmd in ("is-completely-reducible", "cr-series"):
            if isinstance(G.field, FunctionField) and G.field.characteristic() > 0:
                raise ImperfectField("complete reducibility testing needs a perfect field")
        rep = analyze(G, config)
        verdict = {"nilpotent": rep.nilpotent}
        if rep.nilpotent:
            verdict["finite"] = rep.finite
            verdict["route"] = rep.route
            if rep.finite:
                verdict["order"] = rep.order
            if rep.completely_reducible is not None:
                verdict["completely_reducible"] = rep.completely_reducible
        report["verdict"] = verdict
        if rep.root_power > 1:
            report["split_root_power"] = rep.root_power
        if rep.witness is not None:
            report["witness"] = serialize_witness(rep.witness)
        if rep.notes:
            report["notes"] = rep.notes
        if cmd in ("sylow", "primary") and rep.primary is not None:
            report["sylow"] = _serialize_sylow(rep.primary, rep.primary_is_extension)
        if cmd in ("cr-series", "is-completely-reducible") and rep.cr_series_dims is not None:
            report["cr_series_dims"] = rep.cr_series_dims
    elif cmd == "reduce":
        cd = select_modulus(G, config)
        image = apply_congruence_group(G, cd)
        report["congruence"] = cd.to_json()
        report["image"] = group_to_json(image)
        report["verdict"] = {"reduced": True, "p": cd.p}
    elif cmd == "oracle":
        from .testkit import closure, oracle_invariants

        c = closure(list(G.gens) or [G.identity], config.closure_cap)
        if c.overflowed:
            report["verdict"] = {"overflowed": True, "cap": config.closure_cap}
        else:
            inv = oracle_invariants(c)
            report["verdict"] = dict(inv, overflowed=False)
    else:
        raise ValueError(f"unknown command {cmd}")
    report["wall_ms"] = int((time.monotonic() - t0) * 1000)
    return report


def _emit(report, as_json):
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=False))
        return
    cmd = report.get("command")
    verdict = report.get("verdict", {})
    lines = [f"{cmd}: " + ", ".join(f"{k}={v}" for k, v in verdict.items())]
    if report.get("witness"):
        w = report["witness"]
        lines.append(f"witness: {w['kind']} ({w['note']})")
    if report.get("congruence"):
        c = report["congruence"]
        lines.append(f"reduction: p={c.get('p')} target={c.get('target')}")
    for note in report.get("notes", []):
        lines.append(f"note: {note}")
    print("\n".join(lines))


def _int_arg(valid, what):
    """An argparse type: an integer for which valid holds, else a usage error."""

    def parse(text):
        try:
            n = int(text)
            if valid(n):
                return n
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")

    return parse


def _add_common(p):
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.add_argument("--prime", type=_int_arg(is_prime, "a prime"), help="override the reduction prime")
    p.add_argument(
        "--cap", type=_int_arg(lambda n: n > 0, "a positive integer"), help="element cap of each Sylow closure"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for the modulus search")


@functools.cache
def _parser():
    """The argument parser, built once per process: parse_args keeps no
    state in it, and building it costs more than most analyses."""
    parser = argparse.ArgumentParser(
        prog="nilmat",
        description="Exact nilpotency testing and structure analysis for matrix groups",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd in (c for c in COMMANDS if c not in ("gen", "verify-witness")):
        p = sub.add_parser(cmd)
        p.add_argument("file", nargs="?", default=None, help="group file (JSON)")
        p.add_argument("--dir", default=None, help="analyze every .json group file in a directory")
        _add_common(p)

    pg = sub.add_parser("gen", help="emit corpus group files")
    gsub = pg.add_subparsers(dest="gen_kind", required=True)
    pmax = gsub.add_parser("max-irr")
    positive = _int_arg(lambda n: n > 0, "a positive integer")
    pmax.add_argument("n", type=positive)
    pmax.add_argument("p", type=_int_arg(is_prime, "a prime"))
    pmax.add_argument("l", type=positive, nargs="?", default=1)
    pmax.add_argument("--out", default=None)
    pmax.add_argument("--seed", type=int, default=0)
    pred = gsub.add_parser("reducible")
    pred.add_argument("base", help="group file of the base group")
    pred.add_argument("--out", default=None)
    pred.add_argument("--seed", type=int, default=0)

    pv = sub.add_parser("verify-witness")
    pv.add_argument("report", help="report file produced with --json")
    pv.add_argument("--group", default=None, help="group file for word evaluation")
    pv.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.cmd == "gen":
            return _cmd_gen(args)
        if args.cmd == "verify-witness":
            return _cmd_verify(args)
        config = _config_from_args(args)
        if args.dir:
            return _cmd_batch(args, config)
        if not args.file:
            print("error: a group file is required", file=sys.stderr)
            return 2
        G = parse_group_file(args.file, seed=config.seed)
        report = run_command(args.cmd, G, config, group_file=args.file)
        _emit(report, args.json)
        return 0
    except (ParseError, SingularGenerator) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (CapExceeded, NoPrimeInRange) as e:
        print(f"budget: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except NilmatError as e:
        # capability errors, e.g. an imperfect field for a split-based query
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def _cmd_batch(args, config) -> int:
    from pathlib import Path

    files = sorted(Path(args.dir).glob("*.json"))
    if not files:
        print("error: no .json group files found", file=sys.stderr)
        return 2

    def work(path):
        try:
            G = parse_group_file(path, seed=config.seed)
            return run_command(args.cmd, G, config, group_file=path), 0
        except (ParseError, SingularGenerator) as e:
            return {"schema": SCHEMA, "group_file": str(path), "error": str(e)}, 2
        except NilmatError as e:
            return {
                "schema": SCHEMA,
                "group_file": str(path),
                "error": f"{type(e).__name__}: {e}",
            }, 1

    results = [work(path) for path in files]
    reports = [r for r, _ in results]
    print(json.dumps(reports, indent=2))
    return max(code for _, code in results)


def _cmd_gen(args) -> int:
    from .testkit import gen_max_abs_irr_nilpotent, gen_reducible_nilpotent

    try:
        if args.gen_kind == "max-irr":
            G = gen_max_abs_irr_nilpotent(args.n, args.p, args.l, seed=args.seed)
        else:
            base = parse_group_file(args.base, seed=args.seed)
            G = gen_reducible_nilpotent(base)
    except NilmatError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    payload = json.dumps(group_to_json(G), indent=2)
    if args.out:
        with open(args.out, "w") as f:
            f.write(payload + "\n")
    else:
        print(payload)
    return 0


def _cmd_verify(args) -> int:
    try:
        with open(args.report) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read report: {e}", file=sys.stderr)
        return 2
    if not isinstance(report, dict):
        print("error: cannot read report: not a JSON object", file=sys.stderr)
        return 2
    group = None
    gf = args.group or report.get("group_file")
    # a GF(p^l) field without a modulus is built from the seed the report ran with
    flags = report.get("flags")
    seed = flags.get("seed") if isinstance(flags, dict) else None
    if isinstance(gf, str):
        try:  # a missing file is a ParseError too
            group = parse_group_file(gf, seed=seed if isinstance(seed, int) else 0)
        except (ParseError, SingularGenerator):
            group = None
    ok, checks = verify_report(report, group)
    out = {
        "schema": SCHEMA,
        "command": "verify-witness",
        "verified": ok,
        "checks": [{"check": c, "passed": p, "detail": d} for c, p, d in checks],
    }
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        print(("VERIFIED" if ok else "NOT CONFIRMED") + f" ({len(checks)} checks)")
        for c, p, d in checks:
            print(f"  [{'ok' if p else 'FAIL'}] {c}" + (f" ({d})" if d else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
