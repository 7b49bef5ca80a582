"""Command line front end: parsing, reports, determinism, verification."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nilmat.cli import group_to_json, main, parse_group_file, parse_group_json, run_command
from nilmat.config import DEFAULT
from nilmat.congruence import select_modulus
from nilmat.errors import NoPrimeInRange, ParseError, SingularGenerator

HEIS = {
    "field": {"kind": "Q"},
    "generators": [
        [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        [["1", "0", "0"], ["0", "1", "1"], ["0", "0", "1"]],
    ],
}

D31SWAP = {
    "field": {"kind": "Q"},
    "generators": [[["3", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]],
}

S3 = {
    "field": {"kind": "Q"},
    "generators": [
        [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]],
        [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]],
    ],
}

DIAG2 = {"field": {"kind": "Q"}, "generators": [[["2"]]]}

D8 = {
    "field": {"kind": "Q"},
    "generators": [[["0", "-1"], ["1", "0"]], [["1", "0"], ["0", "-1"]]],
}

# <sqrt2 I, swap> over Q(sqrt2): x^2 - 2 is irreducible mod 3, so the
# reduction at 3 finds the image of sqrt2 by factoring over GF(9)
SQRT2_SWAP = {
    "field": {"kind": "NF", "minpoly": [-2, 0, 1]},
    "generators": [[[["0", "1"], ["0"]], [["0"], ["0", "1"]]], [[["0"], ["1"]], [["1"], ["0"]]]],
}

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args):
    """A fresh Python process with this checkout's package on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120, env=env)


def run_fresh(argv):
    return run_python("-m", "nilmat.cli", *argv)


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def test_parse_group_json_examples():
    G = parse_group_json(HEIS)
    assert G.degree == 3 and len(G.gens) == 2
    with pytest.raises(ParseError):
        parse_group_json({"field": {"kind": "Q"}, "generators": [[["1", "0"], ["0", "1", "1"]]]})
    with pytest.raises(ParseError):
        parse_group_json({"field": {"kind": "Q"}, "generators": [[["1/0"]]]})
    with pytest.raises(SingularGenerator):
        parse_group_json({"field": {"kind": "Q"}, "generators": [[["1", "1"], ["1", "1"]]]})
    # GF integers are ints or integer strings: a boolean or a float would be
    # read as 1 or truncated into another group
    gf25, gf5 = {"kind": "GF", "p": 5, "l": 2}, {"kind": "GF", "p": 5}
    for field, entry in (
        (gf25, [2.7]),
        (gf25, [True]),
        (gf5, True),
        (gf5, 2.0),
        ({"kind": "GF", "p": 5.9}, "1"),
        ({"kind": "GF", "p": 5, "l": True}, "1"),
        ({"kind": "GF", "p": 5, "l": 2, "modulus": [2, 0, True]}, ["1"]),
        ({"kind": "NF", "minpoly": [-2, 0, 1.0]}, ["1"]),
        # a float has lost digits: this was read as 1543209862654321/12500000000000000
        ({"kind": "NF", "minpoly": [-2, 0, 1]}, [0.12345678901234567890123]),
        ({"kind": "NF", "minpoly": [-2, 0, 1]}, [0.5]),
        ({"kind": "NF", "minpoly": [-2, 0, 1]}, [True]),
    ):
        with pytest.raises(ParseError):
            parse_group_json({"field": field, "generators": [[[entry]]]})
    # arrays stay arrays: a string would be read by character ("101" as
    # X^2 + 1, "201" as x^2 + 2, "12" as 1 + 2X), an object by its keys, and
    # an int raised TypeError
    ff = {"kind": "FF", "base": {"kind": "Q"}}
    for field, entry in (
        ({"kind": "GF", "p": 3, "l": 2, "modulus": "101"}, ["1"]),
        ({"kind": "GF", "p": 3, "l": 2, "modulus": 101}, ["1"]),
        ({"kind": "NF", "minpoly": "201"}, ["1"]),
        ({"kind": "NF", "minpoly": {"-2": 0, "0": 1, "1": 2}}, ["1"]),
        ({"kind": "NF", "minpoly": 201}, ["1"]),
        (ff, {"num": "12", "den": ["1"]}),
        (ff, {"num": ["1"], "den": "1"}),
        (ff, {"num": 5, "den": ["1"]}),
        (ff, {"num": {"1": "1"}, "den": ["1"]}),
    ):
        with pytest.raises(ParseError):
            parse_group_json({"field": field, "generators": [[[entry]]]})
    for entry in (["1/2", 3], ["0.5", "3"]):
        G = parse_group_json({"field": {"kind": "NF", "minpoly": [-2, 0, 1]}, "generators": [[[entry]]]})
        assert G.gens[0].rows == (((Fraction(1, 2), Fraction(3)),),)
    for field in (gf5, {"kind": "GF", "p": "5"}, {"kind": "GF", "p": 5, "l": "1"}):
        G = parse_group_json({"field": field, "generators": [[[7]], [["3"]]]})
        assert G.field.name() == "GF(5)" and [g.rows for g in G.gens] == [((2,),), ((3,),)]


def test_parse_group_file_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{\n  notjson\n}")
    with pytest.raises(ParseError) as exc:
        parse_group_file(p)
    assert ":2:" in str(exc.value)


def test_group_file_round_trip(tmp_path):
    G = parse_group_json(D31SWAP)
    p = write(tmp_path, "again.json", group_to_json(G))
    G2 = parse_group_file(p)
    assert G2.gens == G.gens


def test_run_command_verdicts(tmp_path):
    G = parse_group_json(HEIS)
    rep = run_command("is-nilpotent", G)
    assert rep["schema"] == "nilmat/1"
    assert rep["verdict"] == {"nilpotent": True}
    rep2 = run_command("is-nilpotent", parse_group_json(S3))
    assert rep2["verdict"]["nilpotent"] is False
    assert rep2["witness"] is not None
    rep3 = run_command("order", parse_group_json(DIAG2))
    assert rep3["verdict"]["nilpotent"] is True
    assert rep3["verdict"]["finite"] is False
    assert "order" not in rep3["verdict"]


def test_cli_exit_codes(tmp_path, capsys):
    heis = write(tmp_path, "heis.json", HEIS)
    assert main(["is-nilpotent", str(heis)]) == 0
    capsys.readouterr()
    missing = tmp_path / "missing.json"
    assert main(["is-nilpotent", str(missing)]) == 2
    capsys.readouterr()
    # budget errors exit 1: a closure cap of 2 cannot host the D8 image order
    d8 = write(tmp_path, "d8.json", D8)
    assert main(["is-finite", str(d8), "--cap", "2"]) == 1
    capsys.readouterr()


def test_prime_and_cap_flags_are_validated(tmp_path, capsys):
    """--prime must be a prime and --cap a positive integer, else a usage
    error (exit 2); a prime that fails the reduction's checks is a budget
    error (exit 1)."""
    d8 = write(tmp_path, "d8.json", D8)
    bad = [("--prime", v, "is not a prime") for v in ("9", "-7", "0", "x")]
    bad += [("--cap", v, "is not a positive integer") for v in ("0", "-5", "x")]
    for flag, value, message in bad:
        with pytest.raises(SystemExit) as exc:
            main(["is-nilpotent", str(d8), flag, value])
        assert exc.value.code == 2, (flag, value)
        assert message in capsys.readouterr().err
    assert main(["is-nilpotent", str(d8), "--prime", "2"]) == 1
    assert "NoPrimeInRange: prime 2 fails the validity checks" in capsys.readouterr().err
    assert main(["is-nilpotent", str(d8), "--prime", "5", "--cap", "8", "--json"]) == 0
    flags = json.loads(capsys.readouterr().out)["flags"]
    assert flags == {"prime": 5, "closure_cap": 8, "seed": 0}
    # library callers get a typed error for a prime override that is not prime
    G = parse_group_json(D8)
    for p in (9, -7, 0):
        with pytest.raises(NoPrimeInRange, match=f"prime {p} is not prime"):
            select_modulus(G, DEFAULT.with_(prime_override=p))


def test_verify_witness_fails_closed_on_malformed_reports(tmp_path, capsys):
    """A report that is not a JSON object is unreadable (exit 2); a witness
    that cannot be read back, or whose matrices are ragged or mismatched, is
    NOT CONFIRMED (exit 1), never a traceback."""
    rot = {"field": {"kind": "Q"}, "rows": [["0", "-1"], ["1", "0"]]}
    swap3 = {"field": {"kind": "Q"}, "rows": [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]]}

    def pair(x, y, **item):
        items = [{"label": "x", "matrix": x, **item}, {"label": "y", "matrix": y}]
        return {"witness": {"kind": "non_commuting_pair", "context": "jordan_parts", "items": items}}

    cases = [
        ([], 2),
        ("not a report", 2),
        ({"witness": 5}, 1),
        ({"witness": [1]}, 1),
        ({"witness": {"kind": "non_commuting_pair", "items": 5}}, 1),
        ({"witness": {"kind": "non_commuting_pair", "items": [{"matrix": rot}]}}, 1),
        (pair({"field": {"kind": "GF", "p": 9}, "rows": [["1"]]}, rot), 1),
        (pair({"field": {"kind": "Q"}, "rows": [["0", "1"], ["1"]]}, rot), 1),
        (pair(rot, swap3), 1),
        (pair(rot, dict(rot, field={"kind": "GF", "p": 5})), 1),
        (pair(rot, swap3, label=5), 1),
        (pair(rot, swap3, data=[]), 1),
        (dict(pair(rot, swap3), group_file=5), 1),
    ]
    for payload, code in cases:
        path = write(tmp_path, "rep.json", payload)
        assert main(["verify-witness", str(path)]) == code, payload
        captured = capsys.readouterr()
        if code == 1:
            assert captured.out.startswith("NOT CONFIRMED (1 checks)"), payload
            assert "[FAIL] well-formed witness" in captured.out
        else:
            assert "error: cannot read report" in captured.err
    for payload, code in cases[:5]:
        proc = run_fresh(["verify-witness", str(write(tmp_path, "rep.json", payload))])
        assert proc.returncode == code and "Traceback" not in proc.stderr, proc.stderr


def test_one_process_serves_many_calls(tmp_path, monkeypatch, capsys):
    """main reuses one parser: a mix of commands, a usage error and --help in
    one process print exactly what fresh processes print for the same
    arguments, wall_ms aside."""
    monkeypatch.setenv("COLUMNS", "80")
    d31 = write(tmp_path, "d31.json", D31SWAP)
    s3 = write(tmp_path, "s3.json", S3)
    report = tmp_path / "s3-report.json"
    assert main(["is-nilpotent", str(s3), "--json"]) == 0
    report.write_text(capsys.readouterr().out)
    calls = [
        ["is-nilpotent", str(d31), "--json"],
        ["order", str(d31), "--json", "--cap", "50"],
        ["sylow", str(s3), "--json"],
        ["reduce", str(d31), "--json", "--prime", "7"],
        ["verify-witness", str(report), "--json"],
        ["gen", "max-irr", "2", "3", "--seed", "2"],
        ["oracle", str(s3), "--json"],
        ["is-nilpotent", str(d31), "--prime", "9"],
        ["order", "--help"],
        ["is-nilpotent", str(d31), "--json"],
    ]

    def mask(text):
        return re.sub(r'"wall_ms": \d+', '"wall_ms": 0', text)

    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        here = capsys.readouterr()
        fresh = run_fresh(argv)
        assert code == fresh.returncode, argv
        assert mask(here.out) == mask(fresh.stdout), argv
        assert here.err == fresh.stderr, argv
        if "--help" in argv:
            assert "element cap of each Sylow closure" in here.out and "Cayley" not in here.out


# modules a CLI run does without: the test oracle, hashlib (which loads
# OpenSSL), and dataclasses, inspect and pathlib, each tens of modules deep
NOT_LOADED = ("nilmat.testkit", "hashlib", "dataclasses", "inspect", "pathlib")


def test_cli_import_is_lean():
    """Importing the CLI loads none of NOT_LOADED beyond what the standard
    modules it needs load.  -S keeps site hooks from loading them first."""
    code = (
        "import sys, random, fractions, json, argparse\n"
        "before = set(sys.modules)\n"
        "import nilmat.cli\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    proc = run_python("-S", "-c", code)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout
    assert "'nilmat.cli'" in added
    assert not [m for m in NOT_LOADED if repr(m) in added], added


def imported_modules(*args):
    """The modules a fresh `python -S -X importtime ARGS` process imports,
    lazy ones included, and its stdout."""
    proc = run_python("-S", "-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    return {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}, proc.stdout


def test_cold_run_is_lean(tmp_path):
    """A whole fresh `is-nilpotent` run, the command as well as the import,
    loads none of NOT_LOADED beyond what the standard modules it needs load."""
    stdlib, _ = imported_modules("-c", "import random, fractions, json, argparse")
    for name, payload in (("d8.json", D8), ("s3.json", S3), ("sqrt2.json", SQRT2_SWAP)):
        path = write(tmp_path, name, payload)
        loaded, out = imported_modules("-m", "nilmat.cli", "is-nilpotent", str(path), "--json")
        assert "nilmat.linalg" in loaded and '"schema": "nilmat/1"' in out
        if payload is SQRT2_SWAP:
            assert json.loads(out)["congruence"]["target"] == {"kind": "GF", "p": 3, "l": 2, "modulus": ["1", "0", "1"]}
        extra = (loaded - stdlib).intersection(NOT_LOADED)
        assert not extra, sorted(extra)


def test_report_determinism(tmp_path):
    G = parse_group_json(D31SWAP)
    r1 = run_command("is-nilpotent", G, DEFAULT)
    r2 = run_command("is-nilpotent", G, DEFAULT)
    r1.pop("wall_ms")
    r2.pop("wall_ms")
    assert json.dumps(r1) == json.dumps(r2)
    # replay with the recorded prime gives the identical report
    p = r1["congruence"]["p"]
    r3 = run_command("is-nilpotent", G, DEFAULT.with_(prime_override=p))
    r3.pop("wall_ms")
    r3["flags"]["prime"] = None
    assert json.dumps(r3) == json.dumps(r1)


def test_verify_witness_subcommand(tmp_path, capsys):
    d31 = write(tmp_path, "d31.json", D31SWAP)
    assert main(["is-nilpotent", str(d31), "--json"]) == 0
    out = capsys.readouterr().out
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(out)
    assert main(["verify-witness", str(rep_path)]) == 0
    assert "VERIFIED" in capsys.readouterr().out
    # tampered witnesses are rejected
    rep = json.loads(out)
    for item in rep["witness"]["items"]:
        if item["label"] == "z":
            item["matrix"]["rows"][0][0] = "1"
            item["matrix"]["rows"][1][1] = "1"
            item["matrix"]["rows"][0][1] = "0"
            item["matrix"]["rows"][1][0] = "0"
    rep_path.write_text(json.dumps(rep))
    assert main(["verify-witness", str(rep_path)]) == 1


def test_verify_witness_reparses_with_the_report_seed(tmp_path, capsys):
    """A GF(9) field given without a modulus takes its modulus from the
    seed, so verify-witness must re-read the group file with the seed the
    report ran with: the Borel group's witness verifies at every seed."""
    borel9 = write(
        tmp_path,
        "borel9.json",
        {
            "field": {"kind": "GF", "p": 3, "l": 2},
            "generators": [
                [[["0", "1"], ["0"]], [["0"], ["1"]]],
                [[["1"], ["1"]], [["0"], ["1"]]],
            ],
        },
    )
    for seed in range(4):
        assert main(["is-nilpotent", str(borel9), "--seed", str(seed), "--json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["verdict"]["nilpotent"] is False
        rep_path = tmp_path / f"rep{seed}.json"
        rep_path.write_text(out)
        assert main(["verify-witness", str(rep_path)]) == 0, seed
        assert capsys.readouterr().out.startswith("VERIFIED")


def test_gen_and_oracle_commands(tmp_path, capsys):
    out = tmp_path / "g32.json"
    assert main(["gen", "max-irr", "2", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["oracle", str(out), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == {"order": 32, "nilpotent": True, "class": 3, "center": 4, "overflowed": False}
    assert main(["gen", "max-irr", "3", "5"]) == 1
    # N and L must be positive integers and P a prime, else a usage error
    for argv, message in (
        (["2", "4"], "'4' is not a prime"),
        (["0", "5"], "'0' is not a positive integer"),
        (["2", "5", "0"], "'0' is not a positive integer"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "max-irr", *argv])
        assert exc.value.code == 2 and message in capsys.readouterr().err, argv
    capsys.readouterr()
    red = tmp_path / "red.json"
    base = write(tmp_path, "c2.json", {"field": {"kind": "Q"}, "generators": [[["-1"]]]})
    assert main(["gen", "reducible", str(base), "--out", str(red)]) == 0
    G = parse_group_file(red)
    assert G.degree == 2


def test_reduce_command_round_trip(tmp_path, capsys):
    d31 = write(tmp_path, "d31.json", D31SWAP)
    assert main(["reduce", str(d31), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["congruence"]["p"] == 5
    img = parse_group_json(rep["image"])
    assert img.field.to_json()["p"] == 5
    # the recorded data replays bit-exactly
    assert main(["reduce", str(d31), "--json", "--prime", "5"]) == 0
    rep2 = json.loads(capsys.readouterr().out)
    assert rep2["image"] == rep["image"]


def test_reduce_names_a_generator_that_is_not_semisimple(tmp_path, capsys):
    """No prime keeps a unipotent generator's minimal polynomial (X - 1)^2
    squarefree: reduce exits 1 naming the generator, for the prime search
    and for a prime the user gives alike."""
    heis = write(tmp_path, "heis.json", HEIS)
    for extra in ([], ["--prime", "7"]):
        assert main(["reduce", str(heis)] + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("budget: NoPrimeInRange: generator 0 is not semisimple"), err


def test_batch_mode(tmp_path, capsys):
    write(tmp_path, "a_heis.json", HEIS)
    write(tmp_path, "b_s3.json", S3)
    assert main(["is-nilpotent", "--dir", str(tmp_path)]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["verdict"]["nilpotent"] for r in reports] == [True, False]


def test_batch_mode_collects_errors(tmp_path, capsys):
    write(tmp_path, "a_heis.json", HEIS)
    (tmp_path / "b_broken.json").write_text("{\"field\": {\"kind\": \"Q\"}, \"generators\": [[[\"1/0\"]]]}")
    write(tmp_path, "c_num_int.json", {"field": {"kind": "FF", "base": {"kind": "Q"}}, "generators": [[[{"num": 5, "den": ["1"]}]]]})
    write(tmp_path, "d_d8.json", D8)
    assert main(["is-nilpotent", "--dir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    reports = json.loads(out)
    assert reports[0]["verdict"]["nilpotent"] is True
    assert "error" in reports[1]
    assert reports[2]["group_file"].endswith("c_num_int.json") and "as arrays" in reports[2]["error"]
    assert reports[3]["verdict"]["nilpotent"] is True
    assert "Traceback" not in err


def test_batch_mode_exits_one_on_a_budget_error(tmp_path, capsys):
    """Under --cap 2 the unipotent Heisenberg group needs no closure, but D8
    over GF(5) overflows its Sylow 2-closure: that entry records the budget
    error and the batch exits 1."""
    write(tmp_path, "a_heis.json", HEIS)
    write(tmp_path, "b_d8.json", dict(D8, field={"kind": "GF", "p": 5, "l": 1}))
    assert main(["is-nilpotent", "--dir", str(tmp_path), "--cap", "2"]) == 1
    reports = json.loads(capsys.readouterr().out)
    assert reports[0]["verdict"]["nilpotent"] is True
    assert reports[1]["error"].startswith("CapExceeded: ")


def test_budgets_hit_is_empty_for_the_reduction(tmp_path, capsys):
    """The reduction's checks are not budgets: budgets_hit stays empty for
    Q8 <= GL(4, Q) reduced at 3, a prime not above the degree, and for
    <[[1, 1], [0, X]]> over GF(5)(X), its own diagonalizable part, whose
    image at X = 1 (X = 0 is a root of the inverse's denominator) is the
    unipotent [[1, 1], [0, 1]], not semisimple, which
    checks.image_semisimple still reports."""
    from corpus import rational_corpus

    q8 = next(e.group for e in rational_corpus() if e.name == "Q8")
    assert q8.degree == 4
    path = write(tmp_path, "q8.json", group_to_json(q8))
    assert main(["is-nilpotent", str(path), "--json", "--prime", "3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"]["nilpotent"] is True
    assert rep["congruence"]["p"] == 3 and "p_gt_n" not in rep["congruence"]["checks"]
    assert rep["budgets_hit"] == []
    one, zero, x = {"num": ["1"], "den": ["1"]}, {"num": [], "den": ["1"]}, {"num": ["0", "1"], "den": ["1"]}
    ffp = {
        "field": {"kind": "FF", "base": {"kind": "GF", "p": 5, "l": 1}},
        "generators": [[[one, one], [zero, x]]],
    }
    path = write(tmp_path, "ffp.json", ffp)
    assert main(["is-nilpotent", str(path), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"]["nilpotent"] is True
    assert rep["congruence"]["checks"]["image_semisimple"] is False
    assert rep["budgets_hit"] == []


def test_prime_override_over_gf_x_must_be_the_characteristic(tmp_path, capsys):
    """Over GF(5)(X) the reduction is an evaluation with no prime to choose:
    --prime 7 on <X I> fails the validity checks (exit 1) rather than being
    ignored, and --prime 5 is the reduction's own prime."""
    x, zero = {"num": ["0", "1"], "den": ["1"]}, {"num": [], "den": ["1"]}
    xi = {"field": {"kind": "FF", "base": {"kind": "GF", "p": 5, "l": 1}}, "generators": [[[x, zero], [zero, x]]]}
    path = write(tmp_path, "xi.json", xi)
    assert main(["is-nilpotent", str(path), "--json", "--prime", "7"]) == 1
    assert capsys.readouterr().err.strip().endswith("NoPrimeInRange: prime 7 fails the validity checks")
    assert main(["is-nilpotent", str(path), "--json", "--prime", "5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["flags"]["prime"] == 5 and rep["congruence"]["p"] == 5


def test_prime_override_over_q_x_names_the_prime(tmp_path, capsys):
    """--prime 2 fails at every admissible evaluation point of D8 x <X I>
    over Q(X): the error names the prime, as over Q, not the point search."""
    one, neg, zero = ({"num": [c], "den": ["1"]} for c in ("1", "-1", "0"))
    x = {"num": ["0", "1"], "den": ["1"]}
    d8x = {
        "field": {"kind": "FF", "base": {"kind": "Q"}},
        "generators": [[[zero, neg], [one, zero]], [[one, zero], [zero, neg]], [[x, zero], [zero, x]]],
    }
    path = write(tmp_path, "d8x.json", d8x)
    assert main(["is-nilpotent", str(path), "--prime", "2"]) == 1
    assert capsys.readouterr().err.strip().endswith("NoPrimeInRange: prime 2 fails the validity checks")


def test_imperfect_field_commands_exit_one(tmp_path, capsys):
    path = write(
        tmp_path,
        "ffp.json",
        {
            "field": {"kind": "FF", "base": {"kind": "GF", "p": 5, "l": 1}},
            "generators": [
                [
                    [{"num": ["0", "1"], "den": ["1"]}, {"num": [], "den": ["1"]}],
                    [{"num": [], "den": ["1"]}, {"num": ["1"], "den": ["1"]}],
                ]
            ],
        },
    )
    assert main(["is-completely-reducible", str(path)]) == 1
    capsys.readouterr()
    assert main(["is-nilpotent", str(path)]) == 0


def test_split_root_power_is_reported_only_when_taken():
    """Over GF(3)(X) the companion matrix of t^3 - X splits only over
    GF(3)(Y), X = Y^3: its is-nilpotent and order reports state 3 as
    split_root_power, and the infinite-order witness of the order report,
    over Y, replays with the group.  D8 x <X I> over GF(5)(X) splits over
    GF(5)(X) itself, and its reports have no such key."""
    from corpus import function_field_corpus

    from nilmat.verify import verify_report

    groups = {e.name: e.group for e in function_field_corpus()}
    companion, d8x = groups["companion(t^3-X)-GF3(X)"], groups["D8x<XI>-GF5(X)"]
    for cmd in ("is-nilpotent", "order"):
        assert run_command(cmd, companion)["split_root_power"] == 3
        assert "split_root_power" not in run_command(cmd, d8x)
    rep = run_command("order", companion)
    assert rep["verdict"]["finite"] is False and rep["witness"]["kind"] == "infinite_order_element"
    assert verify_report(rep, companion)[0]


def test_reduce_number_field_through_files(tmp_path, capsys):
    path = write(
        tmp_path,
        "nf.json",
        {
            "field": {"kind": "NF", "minpoly": ["-2", "0", "1"]},
            "generators": [[[["0", "1"], ["0"]], [["0"], ["1"]]]],
        },
    )
    assert main(["reduce", str(path), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    target = rep["congruence"]["target"]
    assert target["kind"] == "GF" and "modulus" in target or target.get("l", 1) == 1
    img = parse_group_json(rep["image"])
    # the image of the generator is a square root of 2 in the target field
    a = img.gens[0].rows[0][0]
    F = img.field
    assert F.mul(a, a) == F.from_int(2)


def test_cr_series_and_sylow_commands(tmp_path, capsys):
    heis = write(tmp_path, "heis.json", HEIS)
    assert main(["cr-series", str(heis), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["cr_series_dims"] == [3, 2, 1, 0]
    assert rep["verdict"]["completely_reducible"] is False
    g32 = tmp_path / "g32.json"
    assert main(["gen", "max-irr", "2", "5", "--out", str(g32)]) == 0
    capsys.readouterr()
    assert main(["sylow", str(g32), "--json"]) == 0
    rep2 = json.loads(capsys.readouterr().out)
    assert rep2["sylow"]["components"]["2"]["order"] == 32


def test_primary_command(tmp_path, capsys):
    diag2 = write(tmp_path, "diag2.json", DIAG2)
    assert main(["primary", str(diag2), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"]["finite"] is False
    assert rep["sylow"]["extension_of_finite_notion"] is True
    assert rep["sylow"]["components"] == {}
    assert rep["sylow"]["central_part"]
    c12 = write(
        tmp_path,
        "c12.json",
        {"field": {"kind": "GF", "p": 13, "l": 1}, "generators": [[["2"]]]},
    )
    assert main(["primary", str(c12), "--json"]) == 0
    rep2 = json.loads(capsys.readouterr().out)
    assert {k: v["order"] for k, v in rep2["sylow"]["components"].items()} == {"2": 4, "3": 3}


@pytest.mark.parametrize("script", ["witness_replay_demo.py", "run_verdict_table.py"])
def test_scripts_run(script):
    """The scripts shipped with the package run to completion."""
    path = Path(__file__).resolve().parents[1] / "scripts" / script
    proc = subprocess.run([sys.executable, str(path)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
