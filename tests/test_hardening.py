"""Cross-cutting robustness checks: metamorphic properties, process-level
determinism, slow arithmetic paths, and witness tampering."""

import json
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import q8_power_with_diagonal, rational_corpus, semidihedral

from nilmat.cli import group_to_json, run_command
from nilmat.errors import CapExceeded, Singular
from nilmat.fields import QQ, FiniteField, NumberField
from nilmat.groups import GroupSpec
from nilmat.linalg import Matrix, inverse
from nilmat.nilpotency import is_nilpotent
from nilmat.verify import verify_report
from nilmat.witness import WItem, Witness, deserialize_witness, serialize_witness


words = st.lists(
    st.tuples(st.integers(0, 1), st.sampled_from([1, -1])), min_size=0, max_size=12
).map(tuple)


@given(words, words)
@settings(max_examples=80, deadline=None)
def test_word_algebra_matches_matrix_algebra(w1, w2):
    from nilmat.groups import word_inverse, word_mul

    G = GroupSpec(QQ, [Matrix.from_ints(QQ, [[1, 1], [0, 1]]), Matrix.from_ints(QQ, [[0, -1], [1, 0]])])
    assert G.evaluate(word_mul(w1, w2)) == G.evaluate(w1) * G.evaluate(w2)
    assert (G.evaluate(word_mul(w1, word_inverse(w1)))).is_identity()
    assert G.evaluate(word_inverse(w1)) == inverse(G.evaluate(w1))


def test_verdicts_are_conjugation_invariant():
    """Conjugating the generators never changes a verdict."""
    rng = random.Random(83)
    conj_by_degree = {}
    checked = 0
    for entry in rational_corpus():
        n = entry.group.degree
        if n not in conj_by_degree:
            while True:
                t = Matrix.make(QQ, [[QQ.from_int(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
                try:
                    conj_by_degree[n] = (t, inverse(t))
                    break
                except Singular:
                    continue
        t, tinv = conj_by_degree[n]
        conjugated = GroupSpec(QQ, [t * g * tinv for g in entry.group.gens])
        assert is_nilpotent(conjugated).nilpotent == entry.nilpotent, entry.name
        checked += 1
    assert checked >= 20


def test_verdicts_are_generator_order_invariant():
    for entry in rational_corpus():
        if len(entry.group.gens) < 2:
            continue
        reversed_group = GroupSpec(QQ, list(reversed(entry.group.gens)))
        assert is_nilpotent(reversed_group).nilpotent == entry.nilpotent, entry.name


def test_cross_process_report_determinism(tmp_path):
    """Two separate interpreter processes emit identical reports apart from
    the timing field."""
    group = {
        "field": {"kind": "Q"},
        "generators": [[["3", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(group))
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "nilmat.cli", "is-nilpotent", str(path), "--json"],
            capture_output=True,
            text=True,
            check=True,
        )
        rep = json.loads(proc.stdout)
        rep.pop("wall_ms")
        outs.append(json.dumps(rep, sort_keys=False))
    assert outs[0] == outs[1]


def test_large_extension_field_slow_path():
    """GF(5^3) has 125 elements, beyond the lookup-table cutoff."""
    F = FiniteField(5, 3)
    assert F._mul_table is None
    rng = random.Random(3)
    for _ in range(80):
        a, b, c = (F.random_element(rng) for _ in range(3))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        if a:
            assert F.mul(a, F.inv(a)) == F.one
    g = F.multiplicative_generator()
    assert F.pow(g, F.q - 1) == F.one
    assert all(F.pow(g, (F.q - 1) // t) != F.one for t in (2, 31))
    # matrices over the slow-path field still analyze
    G = GroupSpec(F, [Matrix.diagonal(F, (g, F.one))])
    from nilmat.nilpotency import is_finite_nilpotent

    v = is_finite_nilpotent(G)
    assert v.nilpotent and v.artifacts["order"] == 124


def test_witness_tampering_is_detected():
    """Flipping any matrix entry of a witness breaks at least one check."""
    G = GroupSpec(QQ, [Matrix.from_ints(QQ, [[3, 0], [0, 1]]), Matrix.from_ints(QQ, [[0, 1], [1, 0]])])
    v = is_nilpotent(G)
    assert not v.nilpotent
    data = serialize_witness(v.witness)
    baseline = {"witness": data}
    ok, _ = verify_report(baseline, G)
    assert ok
    # tamper the z matrix into the identity: centrality claim collapses
    import copy

    broken = copy.deepcopy(data)
    for item in broken["items"]:
        if item["label"] == "z":
            item["matrix"]["rows"] = [["1", "0"], ["0", "1"]]
    ok2, checks = verify_report({"witness": broken}, G)
    assert not ok2
    # tamper a word: evaluation consistency collapses
    broken2 = copy.deepcopy(data)
    for item in broken2["items"]:
        if item["label"] == "z":
            item["word"] = [[0, 1]]
    ok3, _ = verify_report({"witness": broken2}, G)
    assert not ok3


def test_witness_serialization_round_trip():
    G = GroupSpec(QQ, [Matrix.from_ints(QQ, [[1, 1], [0, 1]]), Matrix.from_ints(QQ, [[-1, 0], [0, 1]])])
    v = is_nilpotent(G)
    w = v.witness
    again = deserialize_witness(serialize_witness(w))
    assert again.kind == w.kind
    assert [it.label for it in again.items] == [it.label for it in w.items]
    for a, b in zip(again.items, w.items):
        assert a.mat == b.mat and a.word == b.word


def test_dihedral_16_over_quadratic_field():
    """The 45-degree rotation lives over Q(sqrt 2); with a reflection it
    generates a dihedral group of order 16, a 2-group, and the full
    pipeline confirms it with exact order and Sylow system."""
    from nilmat.structure import analyze

    nf = NumberField((-2, 0, 1))
    half = QQ.parse("1/2")
    a_half = tuple(c * half for c in nf.parse(["0", "1"]))  # sqrt2 / 2
    neg = nf.neg(a_half)
    r45 = Matrix.make(nf, [[a_half, neg], [a_half, a_half]])
    refl = Matrix.make(nf, [[nf.one, nf.zero], [nf.zero, nf.neg(nf.one)]])
    G = GroupSpec(nf, [r45, refl])
    from nilmat.testkit import closure, oracle_invariants

    oi = oracle_invariants(closure(list(G.gens), 100))
    assert oi == {"order": 16, "nilpotent": True, "class": 3, "center": 2}
    rep = analyze(G)
    assert rep.nilpotent and rep.finite and rep.order == 16
    assert rep.primary.orders == {2: 16}
    assert rep.completely_reducible
    zc = closure([z.mat for z in rep.center_gens], 10)
    assert len(zc) == 2


def test_index_overflow_is_a_budget_error_not_a_verdict():
    """D8 is nilpotent, and the verifier does not confirm a centralizer
    index overflow marker claimed as a witness."""
    G = GroupSpec(QQ, [Matrix.from_ints(QQ, [[0, -1], [1, 0]]), Matrix.from_ints(QQ, [[1, 0], [0, -1]])])
    assert is_nilpotent(G).nilpotent
    marker = Witness(
        kind="index_overflow",
        context="input",
        items=(WItem("a", G.gens[0], ((0, 1),), {"cap": 1}),),
        note="the centralizer index exceeded the bound 1",
    )
    ok, _ = verify_report({"witness": serialize_witness(marker)}, G)
    assert not ok


def test_q8_power_index_overflow_is_not_a_verdict():
    """Q8^k is nilpotent by construction, and the Sylow test says so; for
    k = 5 its 2-component has 32768 elements."""
    for k in (2, 3):
        assert is_nilpotent(q8_power_with_diagonal(k)).nilpotent, k
    G = q8_power_with_diagonal(5)
    v = is_nilpotent(G)
    assert v.nilpotent and v.artifacts["sylow"].orders == {2: 32768}


def test_semidihedral_sylow_subgroup_is_nilpotent():
    """These 2-groups in GL(2, q) have class 8; the Sylow test decides
    them with no bound on the class."""
    from nilmat.groups import enumerate_group

    for q in (127, 383):
        G = semidihedral(q)
        assert len(enumerate_group(list(G.gens), 10**4)) == 512, q
        v = is_nilpotent(G)
        assert v.nilpotent and v.artifacts["sylow"].orders == {2: 512}, q


def test_sylow_component_past_the_cap_is_a_budget_error():
    """A nilpotent group whose 2-component passes closure_cap raises
    CapExceeded; no verdict comes from a cheaper route."""
    from nilmat.config import DEFAULT

    with pytest.raises(CapExceeded):
        is_nilpotent(semidihedral(127), DEFAULT.with_(closure_cap=100))


def test_commutator_chain_witness_is_not_confirmed():
    """The verifier has no class bound to check a commutator chain against,
    so it fails closed on one: a hand-built chain on S3 over GF(7), where
    each a_(i+1) = [a_i, x_i] is nontrivial, is not confirmed."""
    F7 = FiniteField(7)
    c3 = Matrix.from_ints(F7, [[0, 6], [1, 6]])
    t = Matrix.from_ints(F7, [[0, 1], [1, 0]])
    G = GroupSpec(F7, [c3, t])
    a, items = c3, []
    for i in range(6):
        items += [WItem(f"a_{i}", a), WItem(f"x_{i}", t), WItem(f"h_{i}", t)]
        a = inverse(a) * inverse(t) * a * t
    items.append(WItem("a_6", a))
    chain = Witness(kind="commutator_chain", context="input", items=tuple(items), note="")
    ok, checks = verify_report({"witness": serialize_witness(chain)}, G)
    assert not ok and checks == [("known witness kind (commutator_chain)", False, "")]


def test_forged_cross_prime_pair_is_not_confirmed():
    """On the nilpotent D8 over GF(7) two generators fail to commute, but
    they are no cross-prime pair: without prime data, or with primes their
    orders do not match, the pair is not confirmed."""
    F7 = FiniteField(7)
    r, s = Matrix.from_ints(F7, [[0, 6], [1, 0]]), Matrix.diagonal(F7, (1, 6))
    G = GroupSpec(F7, [r, s])
    assert is_nilpotent(G).nilpotent
    for x_data, y_data in (({}, {}), ({"prime": 2}, {"prime": 3}), ({"prime": 2}, {"prime": 2})):
        pair = Witness(
            kind="non_commuting_pair",
            context="input",
            items=(WItem("x", r, ((0, 1),), x_data), WItem("y", s, ((1, 1),), y_data)),
        )
        ok, checks = verify_report({"witness": serialize_witness(pair)}, G)
        assert not ok, (x_data, y_data, checks)


def test_forged_non_p_element_is_not_confirmed():
    """On the nilpotent D8 over GF(7), diag(3, 1) has order 6 but lies
    outside the group: claimed with a wrong word, alone or as a product of
    the 2-element generators, it is not confirmed."""
    F7 = FiniteField(7)
    r, s = Matrix.from_ints(F7, [[0, 6], [1, 0]]), Matrix.diagonal(F7, (1, 6))
    G = GroupSpec(F7, [r, s])
    y_data = {"order": 6, "prime": 2, "parts_word": [[0, 1]]}
    y = WItem("y", Matrix.diagonal(F7, (3, 1)), ((0, 1),), y_data)
    parts = (WItem("part_0", r, ((0, 1),), {"prime": 2}), WItem("part_1", s, ((1, 1),), {"prime": 2}))
    for items in ((y,), parts + (y,)):
        forged = Witness(kind="non_p_element", context="input", items=items)
        ok, checks = verify_report({"witness": serialize_witness(forged)}, G)
        assert not ok, checks


def test_input_words_need_the_group():
    """An input-context witness replays its words over the group's
    generators, so without the group it fails closed: a real non_p_element
    report for S3 over GF(5), generated by two transpositions, is not
    confirmed alone and verified with its group."""
    F5 = FiniteField(5)
    t12 = Matrix.from_ints(F5, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    t23 = Matrix.from_ints(F5, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    G = GroupSpec(F5, [t12, t23])
    rep = run_command("is-nilpotent", G)
    assert rep["witness"]["kind"] == "non_p_element" and rep["witness"]["context"] == "input"
    ok, checks = verify_report(rep)
    assert not ok and ("part_0 word consistent", False, "") in checks
    ok, checks = verify_report(rep, G)
    assert ok, checks


def test_forged_adjoint_context_is_not_confirmed():
    """No path emits the retired adjoint context, whose items carry no
    generators to replay against: on D8 over GF(7) a cross-prime pair of
    rot90 and an order-3 element of GL(2, 7) foreign to the group is
    rejected by its context alone."""
    F7 = FiniteField(7)
    G = GroupSpec(F7, [Matrix.from_ints(F7, [[0, -1], [1, 0]]), Matrix.from_ints(F7, [[1, 0], [0, -1]])])
    pair = Witness(
        kind="non_commuting_pair",
        context="adjoint",
        items=(
            WItem("x", G.gens[0], ((0, 1),), {"prime": 2}),
            WItem("y", Matrix.from_ints(F7, [[0, -1], [1, -1]]), ((1, 1),), {"prime": 3}),
        ),
    )
    ok, checks = verify_report({"witness": serialize_witness(pair)}, G)
    assert not ok and ("known context (adjoint)", False, "") in checks
    assert all(passed for name, passed, _ in checks if name != "known context (adjoint)"), checks


def test_order_claims_replay_only_over_finite_and_char_p_fields():
    """The pipeline computes element orders over GF(q) and decides infinite
    order over GF(q)(X) only, and the verifier replays order claims only
    there: on D8 over Q, forged infinite-order and cross-prime claims are
    not confirmed, while the genuine infinite-order witness of D8 x <X I>
    over GF(5)(X) is."""
    from nilmat.fields import FunctionField

    ROT, REFL, D21, C3 = [[0, -1], [1, 0]], [[1, 0], [0, -1]], [[2, 0], [0, 1]], [[0, -1], [1, -1]]
    rot, refl, d21, c3 = (Matrix.from_ints(QQ, rows) for rows in (ROT, REFL, D21, C3))
    swap = Matrix.from_ints(QQ, [[0, 1], [1, 0]])
    G = GroupSpec(QQ, [rot, refl])

    def ctx(*gens):
        return tuple(WItem(f"context_gen_{i}", g) for i, g in enumerate(gens))

    forgeries = (
        (Witness("infinite_order_element", "s_parts", (WItem("x", d21, ((0, 1),)),) + ctx(d21, refl)), "infinite order"),
        (Witness("infinite_order_element", "input", (WItem("x", d21),)), "infinite order"),
        (
            Witness("non_commuting_pair", "input", (WItem("x", swap, None, {"prime": 2}), WItem("y", c3, None, {"prime": 3}))),
            "y is a 3-element",
        ),
        (
            Witness(
                "non_commuting_pair",
                "image",
                (WItem("x", rot, ((0, 1),), {"prime": 2}), WItem("y", c3, ((1, 1),), {"prime": 3})) + ctx(rot, c3),
            ),
            "y is a 3-element",
        ),
    )
    for forged, failing in forgeries:
        ok, checks = verify_report({"witness": serialize_witness(forged)}, G)
        assert not ok and (failing, False, "") in checks, (forged.kind, forged.context, checks)
    F = FunctionField(FiniteField(5))
    H = GroupSpec(F, [Matrix.from_ints(F, ROT), Matrix.from_ints(F, REFL), Matrix.diagonal(F, (F.x(), F.x()))])
    rep = run_command("order", H)
    assert rep["verdict"]["finite"] is False and rep["witness"]["kind"] == "infinite_order_element"
    ok, checks = verify_report(rep, H)
    assert ok, checks


def test_non_semisimple_claims_replay_only_where_decided():
    """No verdict path emits a non-semisimple claim, so the verifier knows
    no such kind and confirms none: not for a Jordan block, which no word
    or group ties to any group, nor for a rotation, nor over GF(5)(X) for
    the semisimple X * I_5, whose characteristic polynomial t^5 - X^5 has
    no nonzero derivative."""
    from nilmat.fields import FunctionField

    F = FunctionField(FiniteField(5))
    cases = (
        Matrix.from_ints(QQ, [[1, 1], [0, 1]]),
        Matrix.from_ints(QQ, [[0, -1], [1, 0]]),
        Matrix.diagonal(F, (F.x(),) * 5),
    )
    for x in cases:
        w = Witness(kind="non_semisimple_element", context="input", items=(WItem("x", x),))
        ok, checks = verify_report({"witness": serialize_witness(w)})
        assert not ok and ("known witness kind (non_semisimple_element)", False, "") in checks, x


def test_random_groups_differential_against_oracle():
    """Random generator pairs from several families over small finite
    fields: the pipeline verdict must equal the closure oracle verdict on
    every group whose closure fits the budget."""
    from nilmat.nilpotency import is_finite_nilpotent
    from nilmat.testkit import closure, oracle_invariants

    rng = random.Random(2024)
    fields = [FiniteField(3), FiniteField(5), FiniteField(7)]

    def rand_invertible(F, n):
        while True:
            m = Matrix.make(F, [[F.random_element(rng) for _ in range(n)] for _ in range(n)])
            try:
                inverse(m)
                return m
            except Singular:
                continue

    def rand_unitriangular(F, n):
        rows = []
        for i in range(n):
            row = [F.zero] * i + [F.one] + [F.random_element(rng) for _ in range(n - i - 1)]
            rows.append(row)
        return Matrix.make(F, rows)

    def rand_triangular(F, n):
        rows = []
        for i in range(n):
            while True:
                d = F.random_element(rng)
                if not F.is_zero(d):
                    break
            row = [F.zero] * i + [d] + [F.random_element(rng) for _ in range(n - i - 1)]
            rows.append(row)
        return Matrix.make(F, rows)

    def rand_monomial(F, n):
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [[F.zero] * n for _ in range(n)]
        for i in range(n):
            while True:
                d = F.random_element(rng)
                if not F.is_zero(d):
                    break
            rows[i][perm[i]] = d
        return Matrix.make(F, rows)

    checked = 0
    agreements = {"nilpotent": 0, "not": 0}
    for trial in range(120):
        F = rng.choice(fields)
        n = rng.choice([2, 2, 3])
        family = rng.choice(["invertible", "unitriangular", "triangular", "monomial"])
        maker = {
            "invertible": rand_invertible,
            "unitriangular": rand_unitriangular,
            "triangular": rand_triangular,
            "monomial": rand_monomial,
        }[family]
        gens = [maker(F, n) for _ in range(2)]
        c = closure(gens, 3000)
        if c.overflowed:
            continue
        truth = oracle_invariants(c)
        v = is_finite_nilpotent(GroupSpec(F, gens))
        assert v.nilpotent == truth["nilpotent"], (family, F.name(), n, [g.rows for g in gens])
        if v.nilpotent:
            assert v.artifacts["order"] == truth["order"], (family, F.name(), n)
            agreements["nilpotent"] += 1
        else:
            agreements["not"] += 1
        checked += 1
    assert checked >= 60
    assert agreements["nilpotent"] >= 10 and agreements["not"] >= 10


def test_structured_groups_differential_against_oracle():
    """Direct products and block-diagonal sums of small random groups over
    GF(3) and GF(5): the pipeline verdict and order equal the oracle's, and
    the product is nilpotent exactly when both factors are."""
    from nilmat.nilpotency import is_finite_nilpotent
    from nilmat.testkit import closure, oracle_invariants

    rng = random.Random(7331)

    def nonzero(F):
        return rng.randrange(1, F.q)

    def component(F):
        family = rng.choice(["scalar", "diagonal", "unitriangular", "monomial", "triangular"])
        if family == "scalar":
            return [Matrix.make(F, [[nonzero(F)]])]
        if family == "diagonal":
            return [Matrix.diagonal(F, (nonzero(F), nonzero(F))) for _ in range(2)]
        if family == "unitriangular":
            return [Matrix.make(F, [[1, nonzero(F)], [0, 1]])]
        if family == "monomial":
            return [
                Matrix.make(F, [[0, nonzero(F)], [nonzero(F), 0]]),
                Matrix.diagonal(F, (nonzero(F), nonzero(F))),
            ]
        return [Matrix.make(F, [[nonzero(F), rng.randrange(F.q)], [0, nonzero(F)]]) for _ in range(2)]

    def block(a, b):
        z = a.field.zero
        top = [tuple(r) + (z,) * b.n for r in a.rows]
        bottom = [(z,) * a.n + tuple(r) for r in b.rows]
        return Matrix(a.field, tuple(top + bottom))

    def invariants(gens, cap):
        c = closure(gens, cap)
        return None if c.overflowed else oracle_invariants(c)

    seen = {"nilpotent x nilpotent": 0, "nilpotent x not": 0}
    for _ in range(40):
        F = rng.choice([FiniteField(3), FiniteField(5)])
        a, b = component(F), component(F)
        ta, tb = invariants(a, 200), invariants(b, 200)
        if ta is None or tb is None or (not ta["nilpotent"] and not tb["nilpotent"]):
            continue
        ia, ib = Matrix.identity(F, a[0].n), Matrix.identity(F, b[0].n)
        if rng.random() < 0.5:
            gens = [block(g, ib) for g in a] + [block(ia, h) for h in b]
            direct = True
        else:
            a2 = a + [ia] * (len(b) - len(a))
            b2 = b + [ib] * (len(a) - len(b))
            gens = [block(g, h) for g, h in zip(a2, b2)]
            direct = False
        truth = invariants(gens, 400)
        if truth is None:
            continue
        both = ta["nilpotent"] and tb["nilpotent"]
        assert truth["nilpotent"] == both
        if direct:
            assert truth["order"] == ta["order"] * tb["order"]
        v = is_finite_nilpotent(GroupSpec(F, gens))
        assert v.nilpotent == truth["nilpotent"], (F.name(), [g.rows for g in gens])
        if v.nilpotent:
            assert v.artifacts["order"] == truth["order"]
        seen["nilpotent x nilpotent" if both else "nilpotent x not"] += 1
    assert seen["nilpotent x nilpotent"] >= 20 and seen["nilpotent x not"] >= 8, seen


def test_char_p_function_field_commutator_witness_verifies():
    """<diag(2, X), swap> over GF(5)(X): the commutator of a congruence
    kernel generator with a generator is not 1, and the witness replays."""
    from nilmat.fields import FunctionField

    ffp = FunctionField(FiniteField(5))
    x = ffp.x()
    d2x = Matrix.make(ffp, [[ffp.from_int(2), ffp.zero], [ffp.zero, x]])
    swap = Matrix.from_ints(ffp, [[0, 1], [1, 0]])
    G = GroupSpec(ffp, [d2x, swap])
    v = is_nilpotent(G)
    assert not v.nilpotent
    assert (v.witness.kind, v.witness.context) == ("noncentral_kernel_element", "s_parts")
    ok, checks = verify_report({"witness": serialize_witness(v.witness)}, G)
    assert ok, checks


def test_function_field_prime_override(tmp_path):
    from fractions import Fraction

    from nilmat.config import DEFAULT
    from nilmat.congruence import select_modulus
    from nilmat.fields import FunctionField

    ff = FunctionField(QQ)
    x = ff.x()
    G = GroupSpec(ff, [Matrix.make(ff, [[x, ff.zero], [ff.zero, ff.one]])])
    cd = select_modulus(G, DEFAULT.with_(prime_override=7))
    assert cd.p == 7


def test_nilpotent_number_field_group_through_files(tmp_path):
    """A dihedral-type group over Q(sqrt 2): the wreath of a root of unity,
    analyzed through the file interface end to end."""
    nf = NumberField((-2, 0, 1))
    g = Matrix.diagonal(nf, (nf.parse(["0", "1"]), nf.one))  # infinite order
    G = GroupSpec(nf, [g])
    path = tmp_path / "nf.json"
    path.write_text(json.dumps(group_to_json(G)))
    proc = subprocess.run(
        [sys.executable, "-m", "nilmat.cli", "is-finite", str(path), "--json"],
        capture_output=True,
        text=True,
        check=True,
    )
    rep = json.loads(proc.stdout)
    assert rep["verdict"]["nilpotent"] is True
    assert rep["verdict"]["finite"] is False
    ok, checks = verify_report(rep, G)
    assert ok, checks


def test_sylow_closure_uses_input_generator_parts(monkeypatch):
    """Each Sylow component is closed over the input generators' prime
    parts only, and keeps its order."""
    import nilmat.nilpotency as nilp
    from nilmat.testkit import gen_max_abs_irr_nilpotent

    counts = []
    real = nilp.enumerate_group

    def recording(gens, cap):
        counts.append(len(gens))
        return real(gens, cap)

    monkeypatch.setattr(nilp, "enumerate_group", recording)
    q8_cubed = q8_power_with_diagonal(3)
    q8_cubed = GroupSpec(q8_cubed.field, q8_cubed.gens[1:])  # an i and a j per block
    for G, order in ((q8_cubed, 512), (gen_max_abs_irr_nilpotent(4, 5, 1), 2048)):
        counts.clear()
        v = nilp.is_finite_nilpotent(G)
        assert v.nilpotent and v.artifacts["sylow"].orders == {2: order}
        assert counts and max(counts) <= len(G.gens), counts

