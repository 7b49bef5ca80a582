"""The decision core: the Sylow test and verdicts."""

from nilmat.fields import QQ, FiniteField, FunctionField, NumberField
from nilmat.groups import GroupSpec
from nilmat.linalg import Matrix
from nilmat.nilpotency import is_finite_nilpotent, is_nilpotent


def _m(field, rows):
    return Matrix.from_ints(field, rows)


def d8_group(field=QQ):
    return GroupSpec(field, [_m(field, [[0, -1], [1, 0]]), _m(field, [[1, 0], [0, -1]])])


def test_is_finite_nilpotent_examples(ff_corpus, ff_oracle):
    from nilmat.testkit import gen_max_abs_irr_nilpotent

    G32 = gen_max_abs_irr_nilpotent(2, 5, 1)
    v = is_finite_nilpotent(G32)
    assert v.nilpotent
    assert set(v.artifacts["sylow"].orders.items()) == {(2, 32)}

    F3 = FiniteField(3)
    gl23 = GroupSpec(F3, [_m(F3, [[1, 1], [0, 1]]), _m(F3, [[0, 1], [1, 0]])])
    v2 = is_finite_nilpotent(gl23)
    assert not v2.nilpotent and v2.witness is not None

    F13 = FiniteField(13)
    v3 = is_finite_nilpotent(GroupSpec(F13, [_m(F13, [[2]])]))
    assert v3.nilpotent and v3.artifacts["sylow"].orders == {2: 4, 3: 3}


def test_sylow_system_invariants():
    from nilmat.testkit import closure, gen_max_abs_irr_nilpotent

    G = gen_max_abs_irr_nilpotent(2, 13, 1)
    v = is_finite_nilpotent(G)
    assert v.nilpotent
    sylow = v.artifacts["sylow"]
    for p, elts in sylow.components.items():
        for e in elts:
            # p-power order
            k = e.mat
            count = 0
            while not k.is_identity():
                k = k**p
                count += 1
                assert count < 20
        for q, other in sylow.components.items():
            if q == p:
                continue
            for x in elts:
                for y in other:
                    assert x.mat * y.mat == y.mat * x.mat
        c = closure([e.mat for e in elts], 10**5)
        from nilmat.numth import factorint

        assert set(factorint(len(c))) <= {p}
    assert sylow.order == v.artifacts["order"]


def test_is_nilpotent_examples():
    e12 = _m(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    e23 = _m(QQ, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    v = is_nilpotent(GroupSpec(QQ, [e12, e23]))
    assert v.nilpotent and v.artifacts.get("unipotent")

    d31swap = GroupSpec(QQ, [_m(QQ, [[3, 0], [0, 1]]), _m(QQ, [[0, 1], [1, 0]])])
    v2 = is_nilpotent(d31swap)
    assert not v2.nilpotent and v2.witness.kind == "noncentral_kernel_element"

    bad = GroupSpec(QQ, [_m(QQ, [[1, 1], [0, 1]]), _m(QQ, [[-1, 0], [0, 1]])])
    v3 = is_nilpotent(bad)
    assert not v3.nilpotent and v3.witness.kind == "non_commuting_pair"

    assert is_nilpotent(GroupSpec(QQ, [])).nilpotent
    assert is_nilpotent(GroupSpec(QQ, [Matrix.identity(QQ, 3)])).nilpotent


def test_is_nilpotent_number_field():
    nf = NumberField((-2, 0, 1))
    g = Matrix.diagonal(nf, (nf.parse(["0", "1"]), nf.one))
    v = is_nilpotent(GroupSpec(nf, [g]))
    assert v.nilpotent
    swap = _m(nf, [[0, 1], [1, 0]])
    v2 = is_nilpotent(GroupSpec(nf, [g, swap]))
    assert not v2.nilpotent


def test_is_nilpotent_cubic_number_field():
    nf = NumberField((-2, 0, 0, 1))  # cube root of 2
    g = Matrix.diagonal(nf, (nf.parse(["0", "1"]), nf.one))
    v = is_nilpotent(GroupSpec(nf, [g]))
    assert v.nilpotent
    rot = _m(nf, [[0, -1], [1, 0]])
    v2 = is_nilpotent(GroupSpec(nf, [rot]))
    assert v2.nilpotent


def test_is_nilpotent_function_field_char_zero():
    ff = FunctionField(QQ)
    x = ff.x()
    heis_x = GroupSpec(
        ff,
        [
            Matrix.make(ff, [[ff.one, x, ff.zero], [ff.zero, ff.one, ff.zero], [ff.zero, ff.zero, ff.one]]),
            Matrix.make(ff, [[ff.one, ff.zero, ff.zero], [ff.zero, ff.one, ff.one], [ff.zero, ff.zero, ff.one]]),
        ],
    )
    assert is_nilpotent(heis_x).nilpotent
    dx = Matrix.make(ff, [[x, ff.zero], [ff.zero, ff.one]])
    swap = _m(ff, [[0, 1], [1, 0]])
    v = is_nilpotent(GroupSpec(ff, [dx, swap]))
    assert not v.nilpotent


def test_is_nilpotent_function_field_char_p():
    ffp = FunctionField(FiniteField(5))
    x = ffp.x()
    # diagonal abelian group with an indeterminate entry: nilpotent
    dx = Matrix.make(ffp, [[x, ffp.zero], [ffp.zero, ffp.one]])
    v = is_nilpotent(GroupSpec(ffp, [dx]))
    assert v.nilpotent
    # nilpotent of order 125, though its congruence image at X = 0 is not
    # faithful: the unipotent parts are not reduced at all
    heis_x = GroupSpec(
        ffp,
        [
            Matrix.make(ffp, [[ffp.one, x, ffp.zero], [ffp.zero, ffp.one, ffp.zero], [ffp.zero, ffp.zero, ffp.one]]),
            Matrix.make(ffp, [[ffp.one, ffp.zero, ffp.zero], [ffp.zero, ffp.one, ffp.one], [ffp.zero, ffp.zero, ffp.one]]),
        ],
    )
    assert is_nilpotent(heis_x).nilpotent
    from nilmat.structure import analyze

    rep = analyze(heis_x)
    assert (rep.finite, rep.order, rep.primary.orders) == (True, 125, {5: 125})
    # non-nilpotent image stays a clean negative
    swap = _m(ffp, [[0, 1], [1, 0]])
    d2x = Matrix.make(ffp, [[ffp.from_int(2), ffp.zero], [ffp.zero, x]])
    v3 = is_nilpotent(GroupSpec(ffp, [d2x, swap]))
    assert not v3.nilpotent


def test_verdict_agreement_with_oracle(ff_corpus, ff_oracle):
    for entry in ff_corpus:
        v = is_finite_nilpotent(entry.group)
        assert v.nilpotent == ff_oracle[entry.name]["nilpotent"], entry.name


def test_rational_image_class_within_bound(q_corpus):
    """Congruence images of nilpotent rational groups inherit the rational
    class bound: their observed class never exceeds 3n/2."""
    from nilmat.congruence import apply_congruence_group
    from nilmat.testkit import closure, oracle_invariants

    checked = 0
    for entry in q_corpus:
        if not entry.nilpotent:
            continue
        v = is_nilpotent(entry.group)
        assert v.nilpotent
        cd = v.artifacts.get("congruence")
        if cd is None:
            continue  # unipotent shortcut, no image
        split = v.artifacts["split"]
        Gs = GroupSpec(entry.group.field, split.gens_s)
        image = apply_congruence_group(Gs, cd)
        c = closure(list(image.gens), 10**4)
        if c.overflowed:
            continue
        oi = oracle_invariants(c)
        assert oi["nilpotent"]
        assert oi["class"] <= (3 * entry.group.degree) // 2, entry.name
        checked += 1
    assert checked >= 10


def test_sylow_witness_path_returns_non_p_element():
    """S3 over GF(7) has two generators of order 2, so the cross-prime
    check passes and the Sylow test fails only in the 2-component closure,
    whose first element of order 6 is the witness, carried with the
    2-parts and its word over them."""
    from nilmat.config import DEFAULT
    from nilmat.nilpotency import _sylow_test
    from nilmat.verify import verify_report
    from nilmat.witness import serialize_witness

    F7 = FiniteField(7)
    G = GroupSpec(F7, [_m(F7, [[0, 1], [1, 0]]), _m(F7, [[1, 1], [0, 6]])])
    v = _sylow_test(G.elts(), DEFAULT)
    assert not v.nilpotent and v.witness.kind == "non_p_element"
    part_0, part_1, y = v.witness.items
    assert (part_0.label, part_0.mat, part_0.word, part_0.data) == ("part_0", G.gens[0], ((0, 1),), {"prime": 2})
    assert (part_1.label, part_1.mat, part_1.word, part_1.data) == ("part_1", G.gens[1], ((1, 1),), {"prime": 2})
    assert y.label == "y"
    assert y.mat == _m(F7, [[0, 6], [1, 1]])
    assert y.word == ((0, 1), (1, 1))
    assert y.data == {"order": 6, "prime": 2, "parts_word": [[0, 1], [1, 1]]}
    ok, checks = verify_report({"witness": serialize_witness(v.witness)}, G)
    assert ok, checks
    assert {name for name, _, _ in checks} >= {
        "part_0 is a 2-element",
        "part_1 word consistent",
        "y is the parts_word product of the parts",
        "y word consistent",
    }


def test_positive_verdicts_never_run_the_chain(monkeypatch, ff_corpus):
    """The Sylow test decides every positive finite verdict with no class
    bound: every nilpotent group of the benchmark stocks
    (seed 1) and of the finite-field corpus keeps its verdict, and its
    analyze report wherever the stock runs analyze."""
    from pathlib import Path
    from random import Random

    from nilmat.structure import analyze

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import stock

    groups = [
        (e.label, e.group, e.analyze, e.order)
        for build in (stock.finite_stock, stock.char0_stock, stock.cli_stock)
        for e in build(Random(1))
        if e.nilpotent
    ]
    assert len(groups) == 34
    groups += [(c.name, c.group, True, c.order) for c in ff_corpus if c.nilpotent]
    for name, G, run_analyze, order in groups:
        assert is_nilpotent(G).nilpotent, name
        if run_analyze:
            rep = analyze(G)
            assert rep.nilpotent, name
            assert order is None or not rep.finite or rep.order == order, name


def test_char_p_refutation_is_the_first_noncentral_kernel_element():
    """diag(X, 1) and a swap over GF(5)(X) go down the characteristic-0
    path: both are semisimple, so G_s = G, and the witness is the first
    kernel generator in kernel order that fails to commute with a
    generator, against the generators in their order."""
    ffp = FunctionField(FiniteField(5))
    G = GroupSpec(ffp, [Matrix.diagonal(ffp, (ffp.x(), ffp.one)), _m(ffp, [[0, 1], [1, 0]])])
    v = is_nilpotent(G)
    assert not v.nilpotent and (v.witness.kind, v.witness.context) == ("noncentral_kernel_element", "s_parts")
    assert v.artifacts["split"].gens_s == G.gens and "root_power" not in v.artifacts
    z, i = next((z, i) for z in v.artifacts["kernel_gens"] for i, g in enumerate(G.gens) if not (z.mat * g == g * z.mat))
    items = {w.label: w for w in v.witness.items}
    assert (items["z"].mat, items["z"].word) == (z.mat, z.word)
    assert (items["g"].mat, items["g"].word) == (G.gens[i], ((i, 1),))
    assert [items[f"context_gen_{j}"].mat for j in range(2)] == list(G.gens)


def test_function_field_corpus_against_oracle():
    """The GF(p)(X) corpus: every verdict is the constructed one, and every
    is_nilpotent and analyze call returns one.  Finite groups agree with
    the closure oracle on verdict, order and Sylow orders; infinite
    nilpotent ones carry an infinite-order witness over the s-parts and a
    primary decomposition marked as an extension; every negative witness
    replays against its group.  Exactly the two groups holding the
    companion matrix of t^3 - X over GF(3)(X) split over GF(3)(Y), X = Y^3,
    and say so."""
    from corpus import function_field_corpus

    from nilmat.numth import factorint
    from nilmat.structure import analyze
    from nilmat.testkit import closure, oracle_invariants
    from nilmat.verify import verify_report
    from nilmat.witness import serialize_witness

    def replays(w, G):
        return verify_report({"witness": serialize_witness(w)}, G)[0]

    corpus = function_field_corpus()
    assert len(corpus) == 8
    for e in corpus:
        v, rep = is_nilpotent(e.group), analyze(e.group)
        assert v.nilpotent == rep.nilpotent == e.nilpotent, e.name
        assert v.artifacts.get("root_power", 1) == rep.root_power == (3 if "t^3-X" in e.name else 1), e.name
        if not e.nilpotent:
            assert replays(v.witness, e.group), e.name
            continue
        assert rep.finite == e.finite, e.name
        if e.finite:
            truth = oracle_invariants(closure(list(e.group.gens), 10**4))
            assert truth["nilpotent"] and rep.order == truth["order"] == e.order, e.name
            assert rep.primary.orders == {p: p**k for p, k in factorint(e.order).items()}, e.name
            assert rep.witness is None and not rep.primary_is_extension, e.name
        else:
            assert (rep.witness.kind, rep.witness.context) == ("infinite_order_element", "s_parts"), e.name
            assert replays(rep.witness, e.group) and rep.primary_is_extension, e.name
        assert rep.completely_reducible is None, e.name
    for e in corpus:
        if e.finite and not e.nilpotent:
            assert not oracle_invariants(closure(list(e.group.gens), 10**4))["nilpotent"], e.name


def _minpoly_stock():
    """D16 over Q(sqrt 2), C4 wr C2 over Q(i), and D8 x <x I> over Q(x) and
    over GF(5)(x), each conjugated by a unimodular matrix."""
    K, Ki = NumberField((-2, 0, 1)), NumberField((1, 0, 1))
    h = (QQ.zero, QQ.from_int(1) / 2)
    i_ = (QQ.zero, QQ.one)
    groups = {
        "D16(Q(sqrt2))": (K, [Matrix.make(K, [[h, K.neg(h)], [h, h]]), _m(K, [[1, 0], [0, -1]])]),
        "C4wrC2(Q(i))": (Ki, [Matrix.diagonal(Ki, (i_, Ki.one)), _m(Ki, [[0, 1], [1, 0]])]),
    }
    for base in (QQ, FiniteField(5)):
        F = FunctionField(base)
        groups[f"D8x<xI>({F.name()})"] = (F, d8_group(F).gens + (Matrix.diagonal(F, (F.x(), F.x())),))
    out = []
    for name, (F, gens) in groups.items():
        t, tinv = _m(F, [[1, 1], [0, 1]]), _m(F, [[1, -1], [0, 1]])
        out.append((name, GroupSpec(F, [t * g * tinv for g in gens])))
    return out


def test_no_minimal_polynomial_computed_twice_in_one_call(q_corpus, monkeypatch):
    """Within one is_nilpotent or analyze call no matrix's characteristic
    polynomial, the source of every minimal polynomial, is computed twice:
    the Jordan split's f* serves modulus selection, analyze answers every
    query from one verdict, and a repeated kernel matrix is tried once."""
    import sys
    from collections import Counter

    from nilmat import linalg
    from nilmat.structure import analyze

    original = linalg.charpoly
    seen = []

    def recording(m):
        seen.append(m)
        return original(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("nilmat") and getattr(module, "charpoly", None) is original:
            monkeypatch.setattr(module, "charpoly", recording)
    groups = [(e.name, e.group) for e in q_corpus] + _minpoly_stock()
    recorded = 0
    for name, G in groups:
        for call in (is_nilpotent, analyze):
            seen.clear()
            call(G)
            recorded += len(seen)
            repeated = {m: c for m, c in Counter(seen).items() if c > 1}
            assert not repeated, (name, call.__name__)
    assert recorded
