"""Structural queries for nilpotent groups."""

import pytest

from nilmat.config import DEFAULT
from nilmat.errors import ImperfectField
from nilmat.fields import QQ, FiniteField, FunctionField
from nilmat.groups import GroupSpec
from nilmat.linalg import Matrix
from nilmat.numth import factorint
from nilmat.structure import (
    analyze,
    center_generators,
    is_completely_reducible,
    is_finite,
    order,
    primary_decomposition,
)
from nilmat.testkit import closure, gen_max_abs_irr_nilpotent, oracle_invariants


def _m(field, rows):
    return Matrix.from_ints(field, rows)


def d8():
    return GroupSpec(QQ, [_m(QQ, [[0, -1], [1, 0]]), _m(QQ, [[1, 0], [0, -1]])])


def heisenberg():
    return GroupSpec(
        QQ,
        [_m(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]), _m(QQ, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])],
    )


def test_is_finite_examples():
    fin, route, witness, _ = is_finite(heisenberg())
    assert not fin and route == "unipotent-part" and witness.kind == "nontrivial_unipotent_part"
    G2 = GroupSpec(QQ, [_m(QQ, [[2]])])
    fin2, route2, witness2, _ = is_finite(G2)
    assert not fin2 and route2 == "congruence-kernel"
    assert witness2.kind == "nontrivial_kernel_element"
    fin3, _, _, _ = is_finite(d8())
    assert fin3


def test_is_finite_requires_nilpotent():
    s3 = GroupSpec(
        QQ,
        [_m(QQ, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]), _m(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])],
    )
    with pytest.raises(ValueError):
        is_finite(s3)


def test_order_examples():
    assert order(GroupSpec(QQ, [Matrix.identity(QQ, 2)])) == 1
    assert order(d8()) == 8
    G32 = gen_max_abs_irr_nilpotent(2, 5, 1)
    assert order(G32) == 32
    with pytest.raises(ValueError):
        order(GroupSpec(QQ, [_m(QQ, [[2]])]))


def test_order_matches_oracle_on_finite_corpus(ff_corpus, ff_oracle):
    for entry in ff_corpus:
        if not ff_oracle[entry.name]["nilpotent"]:
            continue
        assert order(entry.group) == ff_oracle[entry.name]["order"], entry.name


def test_is_completely_reducible_examples():
    cr, flag = is_completely_reducible(d8())
    assert cr and [w.dim for w in flag] == [2, 0]
    cr2, flag2 = is_completely_reducible(heisenberg())
    assert not cr2 and [w.dim for w in flag2] == [3, 2, 1, 0]
    cr3, _ = is_completely_reducible(GroupSpec(QQ, [_m(QQ, [[2, 2], [0, 2]])]))
    assert not cr3
    with pytest.raises(ImperfectField):
        ffp = FunctionField(FiniteField(5))
        is_completely_reducible(GroupSpec(ffp, [Matrix.identity(ffp, 2)]))


def test_primary_decomposition_examples():
    F13 = FiniteField(13)
    sylow, ext, _ = primary_decomposition(GroupSpec(F13, [_m(F13, [[2]])]))
    assert not ext and sylow.orders == {2: 4, 3: 3}
    sylow8, ext8, _ = primary_decomposition(d8())
    assert not ext8 and set(sylow8.orders) == {2} and sylow8.orders[2] == 8
    # pulled-back generators really generate the Sylow subgroup over Q
    c = closure([e.mat for e in sylow8.components[2]], 100)
    assert len(c) == 8
    Ginf = GroupSpec(QQ, [_m(QQ, [[2]])])
    sylow_inf, ext_inf, _ = primary_decomposition(Ginf)
    assert ext_inf and sylow_inf.components == {} and len(sylow_inf.central_part) >= 1


def test_primary_infinite_components_use_small_primes_only():
    """Non-central components of an infinite nilpotent group only occur for
    primes up to the degree."""
    rot = _m(QQ, [[0, -1], [1, 0]])
    scaled = _m(QQ, [[0, -2], [2, 0]])  # infinite order, commutes with nothing extra
    refl = _m(QQ, [[1, 0], [0, -1]])
    G = GroupSpec(QQ, [scaled, refl])  # infinite dihedral-flavored 2-group times Z
    v = None
    from nilmat.nilpotency import is_nilpotent

    v = is_nilpotent(G)
    assert v.nilpotent
    sylow, ext, _ = primary_decomposition(G, verdict=v)
    assert ext
    assert all(p <= G.degree for p in sylow.components), sylow.components
    # central part is present and genuinely central in the diagonalizable part
    for z in sylow.central_part:
        for g in G.gens:
            assert z.mat * g == g * z.mat


def test_primary_cross_prime_commutation():
    F13 = FiniteField(13)
    G = GroupSpec(F13, [Matrix.diagonal(F13, (2, 1)), Matrix.diagonal(F13, (1, 2))])
    sylow, _, _ = primary_decomposition(G)
    total = 1
    for p, o in sylow.orders.items():
        total *= o
    assert total == order(G)
    primes = sorted(sylow.components)
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            for x in sylow.components[p]:
                for y in sylow.components[q]:
                    assert x.mat * y.mat == y.mat * x.mat


def test_center_generators_examples():
    zs = center_generators(d8())
    mats = {z.mat for z in zs}
    assert _m(QQ, [[-1, 0], [0, -1]]) in mats
    for z in zs:
        for g in d8().gens:
            assert z.mat * g == g * z.mat
    # abelian group: the center is everything; generators map onto the group
    Gab = GroupSpec(QQ, [_m(QQ, [[0, -1], [1, 0]])])
    za = center_generators(Gab)
    assert len(closure([z.mat for z in za], 10)) == 4
    G32 = gen_max_abs_irr_nilpotent(2, 5, 1)
    z32 = center_generators(G32)
    c = closure([z.mat for z in z32], 100)
    oi = oracle_invariants(closure(list(G32.gens), 100))
    assert len(c) == oi["center"] == 4


def test_center_contains_oracle_center(ff_corpus, ff_oracle):
    checked = 0
    for entry in ff_corpus:
        oi = ff_oracle[entry.name]
        if not oi["nilpotent"]:
            continue
        cr, _ = is_completely_reducible(entry.group)
        if not cr:
            continue
        zs = center_generators(entry.group)
        zc = closure([z.mat for z in zs], 10**4)
        assert len(zc) == oi["center"], entry.name
        checked += 1
    assert checked >= 5


def _check_center(G, zs, size, name):
    """zs are central in G, replay from their words, generate a subgroup of
    order size, and number at most the count of prime factors of size."""
    for z in zs:
        assert G.evaluate(z.word) == z.mat, name
        assert all(z.mat * g == g * z.mat for g in G.gens), name
    assert len(closure([z.mat for z in zs], 10**4)) == size, name
    assert len(zs) <= max(1, sum(factorint(size).values())), name


def test_finite_center_matches_oracle(ff_corpus, ff_oracle):
    """analyze reads a finite group's center off its Sylow tables; on every
    nilpotent, completely reducible corpus group over GF(q) and Q it
    generates the oracle's center."""
    from corpus import rational_finite_corpus

    cases = [(e, ff_oracle[e.name]) for e in ff_corpus]
    cases += [(e, oracle_invariants(closure(list(e.group.gens), 10**4))) for e in rational_finite_corpus()]
    checked = 0
    for entry, oi in cases:
        if not oi["nilpotent"]:
            continue
        rep = analyze(entry.group)
        assert rep.nilpotent and rep.finite and rep.order == oi["order"], entry.name
        if not rep.completely_reducible:
            continue
        _check_center(entry.group, rep.center_gens, oi["center"], entry.name)
        checked += 1
    assert checked >= 60


def _signed_perm_sylow2():
    """The Sylow 2-subgroup of the signed permutation matrices of degree 4,
    of order 128."""

    def perm(images):
        return _m(QQ, [[1 if images[j] == i else 0 for j in range(4)] for i in range(4)])

    return GroupSpec(QQ, [Matrix.diagonal(QQ, (-1, 1, 1, 1)), perm([1, 2, 3, 0]), perm([2, 1, 0, 3])])


def test_known_finite_centers():
    """Centers of groups too large for the corpus, through analyze and
    center_generators alike."""
    from corpus import q8_power_with_diagonal, semidihedral

    cases = (
        ("max-irr(4,GF(5))", gen_max_abs_irr_nilpotent(4, 5, 1), 4),
        ("max-irr(6,GF(13))", gen_max_abs_irr_nilpotent(6, 13, 1), 12),
        ("signed-perm-Sylow2(4,Q)", _signed_perm_sylow2(), 2),
        ("Q8^4", q8_power_with_diagonal(4), 16),
        ("semidihedral(127)", semidihedral(127), 2),
    )
    for name, G, size in cases:
        rep = analyze(G)
        assert rep.finite and rep.completely_reducible, name
        _check_center(G, rep.center_gens, size, name)
        assert center_generators(G) == rep.center_gens, name


def test_finite_analyze_builds_no_adjoint_representation(monkeypatch):
    """A finite group's center comes from the Sylow tables, over GF(q), Q,
    Q(sqrt2) and Q(i) alike, with no adjoint representation."""
    from fractions import Fraction

    from nilmat import nilpotency, structure
    from nilmat.fields import NumberField

    def refuse(G):
        raise AssertionError("adjoint representation built for a finite group")

    monkeypatch.setattr(nilpotency, "adjoint_rep", refuse)
    monkeypatch.setattr(structure, "adjoint_rep", refuse)
    K = NumberField((-2, 0, 1))
    h = (Fraction(0), Fraction(1, 2))
    d16 = GroupSpec(K, [Matrix.make(K, [[h, K.neg(h)], [h, h]]), _m(K, [[1, 0], [0, -1]])])
    Ki = NumberField((1, 0, 1))
    c4wr = GroupSpec(Ki, [Matrix.diagonal(Ki, ((Fraction(0), Fraction(1)), Ki.one)), _m(Ki, [[0, 1], [1, 0]])])
    cases = (
        ("max-irr(2,GF(5))", gen_max_abs_irr_nilpotent(2, 5, 1), 32, 4),
        ("D8(Q)", d8(), 8, 2),
        ("signed-perm-Sylow2(4,Q)", _signed_perm_sylow2(), 128, 2),
        ("D16(Q(sqrt2))", d16, 16, 2),
        ("C4wrC2(Q(i))", c4wr, 32, 4),
    )
    for name, G, size, center in cases:
        rep = analyze(G)
        assert rep.finite and rep.order == size and rep.completely_reducible, name
        _check_center(G, rep.center_gens, center, name)
        assert center_generators(G) == rep.center_gens, name


def test_center_generators_rejects_non_semisimple_generators():
    """Over Q a non-diagonalizable generator raises NotSemisimple at once,
    instead of enumerating the infinite adjoint image; completely
    reducible groups keep their center, which the Sylow tables and the
    adjoint kernel generate alike; the kernel lists no identity."""
    import time

    from nilmat.errors import NotSemisimple
    from nilmat.structure import _center_generators

    e13 = _m(QQ, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    for G in (heisenberg(), GroupSpec(QQ, [heisenberg().gens[0], e13, heisenberg().gens[1]])):
        t0 = time.monotonic()
        with pytest.raises(NotSemisimple):
            center_generators(G)
        assert time.monotonic() - t0 < 1.0
    qi = _m(QQ, [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    qj = _m(QQ, [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
    for G in (d8(), GroupSpec(QQ, [qi, qj])):
        zs = center_generators(G)
        kernel = _center_generators(G, DEFAULT)
        assert not any(z.is_identity() for z in kernel)
        adjoint = closure([z.mat for z in kernel], 10)
        assert set(closure([z.mat for z in zs], 10).elements) == set(adjoint.elements)
        minus_one = Matrix.identity(QQ, G.degree) * QQ.from_int(-1)
        assert minus_one in {z.mat for z in zs}
        assert len(closure([z.mat for z in zs], 10)) == 2


def test_analyze_builds_one_adjoint_representation(monkeypatch):
    """On an infinite completely reducible group analyze builds the adjoint
    representation once and reuses the primary decomposition's center, which
    equals center_generators(G), matrices and words."""
    from fractions import Fraction

    from nilmat import nilpotency, structure
    from nilmat.fields import NumberField

    ff = FunctionField(QQ)
    x = ff.x()
    d8_xI = GroupSpec(ff, [_m(ff, [[0, -1], [1, 0]]), _m(ff, [[1, 0], [0, -1]]), Matrix.diagonal(ff, (x, x))])
    K = NumberField((-2, 0, 1))
    h, s2 = (Fraction(0), Fraction(1, 2)), (Fraction(0), Fraction(1))
    d16_s2I = GroupSpec(
        K,
        [Matrix.make(K, [[h, K.neg(h)], [h, h]]), _m(K, [[1, 0], [0, -1]]), Matrix.diagonal(K, (s2, s2))],
    )
    built = []
    adjoint_rep = nilpotency.adjoint_rep

    def counting(G):
        built.append(G)
        return adjoint_rep(G)

    for G in (d8_xI, d16_s2I):
        built.clear()
        with monkeypatch.context() as m:
            m.setattr(nilpotency, "adjoint_rep", counting)
            m.setattr(structure, "adjoint_rep", counting)
            rep = analyze(G)
        assert rep.finite is False and rep.completely_reducible and rep.primary_is_extension
        assert len(built) == 1
        assert rep.center_gens == center_generators(G)
        assert [z.word for z in rep.center_gens] == [z.word for z in center_generators(G)]


def test_center_generators_cap_is_typed():
    from nilmat.errors import CapExceeded

    with pytest.raises(CapExceeded):
        center_generators(d8(), DEFAULT.with_(cayley_cap=2))


def test_analyze_full_reports():
    rep = analyze(d8())
    assert rep.nilpotent and rep.finite and rep.order == 8
    assert rep.completely_reducible and rep.primary.orders == {2: 8}
    assert rep.center_gens

    rep2 = analyze(heisenberg())
    assert rep2.nilpotent and not rep2.finite
    assert rep2.completely_reducible is False
    assert rep2.cr_series_dims == [3, 2, 1, 0]

    s3 = GroupSpec(
        QQ,
        [_m(QQ, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]), _m(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])],
    )
    rep3 = analyze(s3)
    assert not rep3.nilpotent and rep3.witness is not None
