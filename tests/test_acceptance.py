"""Acceptance criteria, one test per criterion, each printing a PASS line.

Runs 1-3 (the corpus verdicts over finite fields and the rationals, and the
finiteness/order sweep) are file-driven: every corpus group is written to a
group file, parsed back, and analyzed through the command front end, so the
reports collected here are exactly what a batch user would see.  Criterion 8
re-verifies every negative witness in those reports independently.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from corpus import finite_field_corpus, rational_corpus, rational_finite_corpus

from nilmat.cli import group_to_json, parse_group_file, run_command
from nilmat.config import DEFAULT
from nilmat.congruence import apply_congruence, apply_congruence_group, select_modulus
from nilmat.errors import NoPrimeInRange, NonexistenceError
from nilmat.fields import QQ, FiniteField, FunctionField, NumberField
from nilmat.groups import GroupSpec
from nilmat.linalg import Matrix, inverse
from nilmat.nilpotency import is_finite_nilpotent, is_nilpotent
from nilmat.numth import odd_primes
from nilmat.poly import gcd as poly_gcd
from nilmat.splitting import is_unipotent_matrix, jordan
from nilmat.structure import analyze
from nilmat.testkit import closure, gen_max_abs_irr_nilpotent, gen_reducible_nilpotent, oracle_invariants
from nilmat.verify import verify_report
from reference import congruence_kernel, minimal_polynomial, spin_dim


def report_pass(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="module")
def runs123(tmp_path_factory):
    """Execute runs 1-3 through group files and keep every report."""
    root = tmp_path_factory.mktemp("acceptance-groups")
    collected = {"reports": [], "ff": {}, "q": {}, "fin": {}, "elapsed1": None}

    def run_on_file(name, entry, cmd):
        path = root / f"{name}.json"
        path.write_text(json.dumps(group_to_json(entry.group)))
        G = parse_group_file(path)
        rep = run_command(cmd, G, DEFAULT, group_file=path)
        collected["reports"].append((rep, G))
        return rep

    # run 1: finite-field corpus against the oracle, timed end to end
    t0 = time.monotonic()
    ff = finite_field_corpus()
    assert len(ff) >= 40
    for entry in ff:
        c = closure(list(entry.group.gens), 10**4)
        assert not c.overflowed
        oracle = oracle_invariants(c)
        rep = run_on_file(f"ff-{entry.name}", entry, "is-nilpotent")
        collected["ff"][entry.name] = (rep, oracle, entry)
    collected["elapsed1"] = time.monotonic() - t0

    # run 2: rational corpus
    qc = rational_corpus()
    assert len(qc) >= 20
    for entry in qc:
        rep = run_on_file(f"q-{entry.name}", entry, "is-nilpotent")
        oracle = None
        if entry.finite:
            c = closure(list(entry.group.gens), 10**4)
            assert not c.overflowed
            oracle = oracle_invariants(c)
        collected["q"][entry.name] = (rep, oracle, entry)

    # run 3: finiteness and order for the rational corpus
    for entry in qc:
        if not entry.nilpotent:
            continue
        cmd = "order" if entry.finite else "is-finite"
        rep = run_on_file(f"fin-{entry.name}", entry, cmd)
        collected["fin"][entry.name] = (rep, entry)
    return collected


def test_criterion_1_finite_field_oracle_agreement(runs123):
    """>= 40 GF(q) corpus groups: verdict equals the oracle, within 60 s."""
    assert len(runs123["ff"]) >= 40
    for name, (rep, oracle, entry) in runs123["ff"].items():
        assert rep["verdict"]["nilpotent"] == oracle["nilpotent"], name
    assert runs123["elapsed1"] <= 60.0, f"run took {runs123['elapsed1']:.1f}s"
    report_pass(
        1,
        f"{len(runs123['ff'])} finite-field groups agree with the oracle "
        f"in {runs123['elapsed1']:.1f}s",
    )


def test_criterion_2_rational_oracle_agreement(runs123):
    """>= 20 rational corpus groups: verdicts match ground truth exactly."""
    assert len(runs123["q"]) >= 20
    for name, (rep, oracle, entry) in runs123["q"].items():
        got = rep["verdict"]["nilpotent"]
        if oracle is not None:
            assert got == oracle["nilpotent"], name
            assert oracle["nilpotent"] == entry.nilpotent, name
        else:
            assert got == entry.nilpotent, name
    report_pass(2, f"{len(runs123['q'])} rational groups match ground truth")


def test_criterion_3_finiteness_and_order(runs123):
    """Finite rational groups: is_finite true and exact oracle order; the
    unipotent and diag(2) families report infinite."""
    checked_finite = 0
    for name, (rep, entry) in runs123["fin"].items():
        _, oracle, _ = runs123["q"][entry.name]
        if entry.finite:
            assert rep["verdict"]["finite"] is True, name
            assert rep["verdict"]["order"] == oracle["order"], name
            checked_finite += 1
        else:
            assert rep["verdict"]["finite"] is False, name
    assert checked_finite >= 10
    d8_rep = runs123["fin"]["D8"][0]
    assert d8_rep["verdict"]["order"] == 8
    assert runs123["fin"]["Z-diag2"][0]["verdict"]["finite"] is False
    assert runs123["fin"]["heisenberg"][0]["verdict"]["finite"] is False
    report_pass(3, f"order exact on {checked_finite} finite groups; infinite cases flagged")


def test_criterion_5_congruence_validity():
    """psi multiplicative and unital for 200 matrices across 5 validated
    moduli; image order equals group order on 50 finite rational groups."""
    ref = GroupSpec(QQ, [Matrix.from_ints(QQ, [[3, 0], [0, 1]]), Matrix.from_ints(QQ, [[0, 1], [1, 0]])])
    moduli = []
    for p in odd_primes(3):
        try:
            moduli.append(select_modulus(ref, DEFAULT.with_(prime_override=p)))
        except NoPrimeInRange:
            continue
        if len(moduli) == 5:
            break
    assert [cd.p for cd in moduli] == [5, 7, 11, 13, 17]
    primes = [cd.p for cd in moduli]
    rng = random.Random(97)
    mats = []
    while len(mats) < 200:
        m = Matrix.make(
            QQ,
            [
                [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 9])) for _ in range(2)]
                for _ in range(2)
            ],
        )
        if any(c.denominator % p == 0 for p in primes for row in m.rows for c in row):
            continue
        mats.append(m)
    for cd in moduli:
        assert apply_congruence(Matrix.identity(QQ, 2), cd).is_identity()
        for i in range(0, 200, 2):
            a, b = mats[i], mats[i + 1]
            assert apply_congruence(a, cd) * apply_congruence(b, cd) == apply_congruence(a * b, cd)
    finite_groups = rational_finite_corpus(50)
    assert len(finite_groups) >= 50
    for entry in finite_groups:
        c = closure(list(entry.group.gens), 10**4)
        assert not c.overflowed
        cd = select_modulus(entry.group)
        img = apply_congruence_group(entry.group, cd)
        image_order, _ = congruence_kernel(entry.group, img.gens, 10**6)
        assert image_order == len(c), entry.name
    report_pass(
        5,
        f"5 moduli multiplicative and unital on 200 matrices; image order exact on {len(finite_groups)} finite groups",
    )


def _random_invertible(field, n, rng, size=2):
    from nilmat.errors import Singular

    while True:
        m = Matrix.make(field, [[field.random_element(rng, size) for _ in range(n)] for _ in range(n)])
        try:
            inverse(m)
            return m
        except Singular:
            continue


def _random_triangular(field, n, rng):
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j < i:
                row.append(field.zero)
            elif j == i:
                while True:
                    d = field.random_element(rng, 2)
                    if not field.is_zero(d):
                        break
                row.append(d)
            else:
                row.append(field.random_element(rng, 2))
        rows.append(row)
    return Matrix.make(field, rows)


def test_criterion_6_jordan_suite():
    """200 random conjugates of triangular seeds per field kind satisfy the
    decomposition identities exactly."""
    kinds = [
        ("rationals", QQ, 3),
        ("prime field", FiniteField(5), 3),
        ("extension field", FiniteField(3, 2), 3),
        ("number field", NumberField((-2, 0, 1)), 3),
        ("function field", FunctionField(QQ), 2),
    ]
    for label, field, max_n in kinds:
        rng = random.Random(61)
        for k in range(200):
            n = rng.randint(1, max_n)
            seed = _random_triangular(field, n, rng)
            t = _random_invertible(field, n, rng)
            g = t * seed * inverse(t)
            jp = jordan(g)
            assert jp.s * jp.u == g and jp.u * jp.s == g
            assert is_unipotent_matrix(jp.u)
            h = minimal_polynomial(jp.s)
            assert poly_gcd(h, h.derivative()).degree == 0
            if k % 10 == 0:
                t2 = _random_invertible(field, n, rng)
                jp2 = jordan(t2 * g * inverse(t2))
                assert jp2.s == t2 * jp.s * inverse(t2)
                assert jp2.u == t2 * jp.u * inverse(t2)
    report_pass(6, "jordan identities hold on 200 conjugated seeds for each of 5 field kinds")


def test_criterion_7_generator_corpus():
    G = gen_max_abs_irr_nilpotent(2, 5, 1)
    c = closure(list(G.gens), 10**4)
    oracle = oracle_invariants(c)
    assert oracle["order"] == 32 and oracle["nilpotent"]
    assert is_finite_nilpotent(G).nilpotent
    assert spin_dim(list(G.gens)) == 4
    with pytest.raises(NonexistenceError):
        gen_max_abs_irr_nilpotent(3, 5, 1)
    d8 = GroupSpec(QQ, [Matrix.from_ints(QQ, [[0, -1], [1, 0]]), Matrix.from_ints(QQ, [[1, 0], [0, -1]])])
    for base in (d8, GroupSpec(QQ, [Matrix.from_ints(QQ, [[-1]])])):
        red = gen_reducible_nilpotent(base)
        assert is_nilpotent(red).nilpotent
        assert analyze(red).completely_reducible is False
    F5 = FiniteField(5)
    d8f = GroupSpec(F5, [Matrix.from_ints(F5, [[0, -1], [1, 0]]), Matrix.from_ints(F5, [[1, 0], [0, -1]])])
    redf = gen_reducible_nilpotent(d8f)
    oraclef = oracle_invariants(closure(list(redf.gens), 10**4))
    assert oraclef["nilpotent"]
    assert is_finite_nilpotent(redf).nilpotent
    assert analyze(redf).completely_reducible is False
    report_pass(7, "(2,5,1) has order 32 and full enveloping algebra; (3,5,1) raises; reducible outputs behave")


def test_criterion_8_witness_soundness(runs123):
    """Every negative report from runs 1-3 passes independent verification."""
    negatives = 0
    for rep, G in runs123["reports"]:
        v = rep.get("verdict", {})
        if v.get("nilpotent") is False or v.get("finite") is False:
            ok, checks = verify_report(rep, G)
            assert ok, (rep["group_file"], checks)
            negatives += 1
    assert negatives >= 15
    report_pass(8, f"all {negatives} negative reports re-verified independently")


def test_criterion_9_kernel_discriminates():
    """diag(3,1) with the swap: the mod-5 image is nilpotent, the kernel is
    not central, and the verdict says not nilpotent with that witness."""
    G = GroupSpec(QQ, [Matrix.from_ints(QQ, [[3, 0], [0, 1]]), Matrix.from_ints(QQ, [[0, 1], [1, 0]])])
    cd = select_modulus(G)
    assert cd.p == 5
    image = apply_congruence_group(G, cd)
    v_img = is_finite_nilpotent(image)
    assert v_img.nilpotent and v_img.artifacts["order"] == 32
    v = is_nilpotent(G)
    assert not v.nilpotent
    assert v.witness.kind == "noncentral_kernel_element"
    rep = run_command("is-nilpotent", G, DEFAULT)
    ok, checks = verify_report(rep, G)
    assert ok, checks
    report_pass(9, "kernel-centrality step rejects the group even though its image is nilpotent")
