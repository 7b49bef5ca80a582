"""Jordan splitting, unipotency certificates, element orders."""

import random

import pytest

from nilmat.errors import (
    ImperfectField,
    NotNilpotentSignal,
    NotUnipotent,
)
from nilmat.fields import QQ, FiniteField, FunctionField, NumberField
from nilmat.groups import GroupSpec
from nilmat.linalg import Matrix, charpoly, inverse, poly_at_matrix, semisimple_minpoly
from nilmat.poly import gcd as poly_gcd, squarefree_part
from nilmat.splitting import (
    finite_order,
    has_infinite_order,
    is_unipotent_matrix,
    jordan,
    reduction_split,
    unipotent_flag,
)
from corpus import dense_signed_permutations
from reference import apply, contains, minimal_polynomial

JORDAN_FIELDS = [QQ, FiniteField(5), FiniteField(3, 2), NumberField((-2, 0, 1)), FunctionField(QQ)]


def random_invertible(field, n, rng, size=2):
    from nilmat.errors import Singular

    while True:
        m = Matrix.make(field, [[field.random_element(rng, size) for _ in range(n)] for _ in range(n)])
        try:
            inverse(m)
            return m
        except Singular:
            continue


def random_triangular_seed(field, n, rng):
    """Invertible upper triangular matrix."""
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


def check_jordan_invariants(g, jp):
    n = g.n
    assert jp.s * jp.u == g
    assert jp.u * jp.s == g
    assert is_unipotent_matrix(jp.u)
    h = minimal_polynomial(jp.s)
    assert poly_gcd(h, h.derivative()).degree == 0


def test_jordan_examples():
    g = Matrix.from_ints(QQ, [[1, 1], [0, 1]])
    jp = jordan(g)
    assert jp.s.is_identity() and jp.u == g
    g2 = Matrix.from_ints(QQ, [[1, 1], [0, 2]])
    jp2 = jordan(g2)
    assert jp2.s == g2 and jp2.u.is_identity()
    g3 = Matrix.from_ints(QQ, [[2, 1], [0, 2]])
    jp3 = jordan(g3)
    assert jp3.s == Matrix.from_ints(QQ, [[2, 0], [0, 2]])
    assert jp3.u == Matrix.make(QQ, [[QQ.one, QQ.parse("1/2")], [QQ.zero, QQ.one]])
    # forced by uniqueness: s of [[2,2],[0,2]] is 2I and u is the full unit shear
    g4 = Matrix.from_ints(QQ, [[2, 2], [0, 2]])
    jp4 = jordan(g4)
    assert jp4.s == Matrix.from_ints(QQ, [[2, 0], [0, 2]])
    assert jp4.u == Matrix.from_ints(QQ, [[1, 1], [0, 1]])


@pytest.mark.parametrize("field", JORDAN_FIELDS, ids=lambda f: f.name())
def test_jordan_random_conjugates(field):
    """Random conjugates of triangular seeds satisfy all the decomposition
    invariants, and the decomposition is conjugation equivariant.

    A quick sample here; the full 200-per-field-kind sweep runs in the
    acceptance module."""
    rng = random.Random(29)
    max_n = 2 if isinstance(field, FunctionField) else 3
    for _ in range(30):
        n = rng.randint(1, max_n)
        seed = random_triangular_seed(field, n, rng)
        t = random_invertible(field, n, rng)
        g = t * seed * inverse(t)
        jp = jordan(g)
        check_jordan_invariants(g, jp)
        # uniqueness: conjugating the input conjugates the parts
        t2 = random_invertible(field, n, rng)
        jp2 = jordan(t2 * g * inverse(t2))
        assert jp2.s == t2 * jp.s * inverse(t2)
        assert jp2.u == t2 * jp.u * inverse(t2)


CHARPOLY_FIELDS = [
    QQ,
    NumberField((-2, 0, 1)),
    NumberField((1, 0, 1)),
    FunctionField(QQ),
    FiniteField(7),
    FiniteField(3, 2),
]


def _charpoly_stock(F, rng):
    """Scalars, repeated eigenvalues, nontrivial Jordan blocks, unipotent
    and finite-order matrices and random ones, each with a random
    conjugate."""
    cands = [F.from_int(2), F.neg(F.one), F.one]
    if isinstance(F, NumberField):
        cands.insert(0, F.parse(["0", "1"]))
    if isinstance(F, FunctionField):
        cands.insert(0, F.x())
    if isinstance(F, FiniteField) and F.l > 1:
        cands.insert(0, F.from_coeffs([0, 1]))
    a = next(c for c in cands if not F.is_zero(c))
    b = next(c for c in cands if not F.is_zero(c) and c != a)
    o, z = F.one, F.zero

    def m(rows):
        return Matrix.make(F, rows)

    base = [
        Matrix.diagonal(F, (a, a, a)),
        Matrix.diagonal(F, (a, a, b)),
        m([[a, o, z], [z, a, z], [z, z, b]]),
        m([[a, o, z], [z, a, o], [z, z, a]]),
        m([[b, o], [z, b]]),
        Matrix.from_ints(F, [[1, 1], [0, 1]]),
        Matrix.from_ints(F, [[0, -1], [1, 0]]),
        Matrix.from_ints(F, [[0, -1], [1, -1]]),
        Matrix.from_ints(F, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
        Matrix.from_ints(F, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        random_invertible(F, 3, rng),
        random_invertible(F, 2, rng),
    ]
    out = []
    for g in base:
        t = random_invertible(F, g.n, rng)
        out += [g, t * g * inverse(t)]
    return out


@pytest.mark.parametrize("field", CHARPOLY_FIELDS, ids=lambda f: f.name())
def test_charpoly_route_matches_krylov_reference(field):
    """charpoly is monic of degree n and annihilates its matrix, its
    squarefree part is that of the Krylov minimal polynomial, jordan and
    semisimple_minpoly equal the references built on the Krylov minimal
    polynomial, and over a finite field finite_order equals the
    reference's powering."""
    import reference as ref

    rng = random.Random(43)
    stock = _charpoly_stock(field, rng)
    if field is QQ:
        # dense conjugated signed permutations, det(x - g) known from their cycles
        dense = [d for n in (6, 8) for d in dense_signed_permutations(n, 2)]
        assert [charpoly(g) for g, _, _ in dense] == [chi for _, chi, _ in dense]
        stock += [g for g, _, _ in dense]
    for g in stock:
        chi = charpoly(g)
        assert chi.degree == g.n and field.is_one(chi.lc())
        assert poly_at_matrix(chi, g) == Matrix.zero(field, g.n)
        f = ref.minimal_polynomial(g)
        fstar = ref.yun_squarefree_part(f)
        assert squarefree_part(chi) == fstar
        assert semisimple_minpoly(g) == (f if f == fstar else None)
        jp = jordan(g)
        assert (jp.s, jp.u, jp.minpoly_s) == ref.jordan(g)
        if isinstance(field, FiniteField):
            assert finite_order(g) == ref.finite_order(g)


def test_jordan_rejects_imperfect_fields():
    """Over GF(5)(X), diag(X, 1) has a separable characteristic polynomial
    and is its own diagonalizable part, while the companion matrix C of
    t^5 - X, inseparable and irreducible, has no split over GF(5)(X).
    Over GF(5)(Y) with X = Y^5 it does: C becomes the companion of
    (t - Y)^5, with s = Y I and u = Y^-1 C."""
    ff = FunctionField(FiniteField(5))
    x, o, z = ff.x(), ff.one, ff.zero
    g = Matrix.make(ff, [[x, z], [z, o]])
    assert jordan(g).s == g
    companion = [[o if i == j + 1 else z for j in range(5)] for i in range(5)]
    companion[0][4] = x
    with pytest.raises(ImperfectField):
        jordan(Matrix.make(ff, companion))
    y5 = ff.make((0, 0, 0, 0, 0, 1), (1,))
    companion[0][4] = y5
    c = Matrix.make(ff, companion)
    jp = jordan(c)
    assert jp.s == Matrix.diagonal(ff, (x,) * 5) and jp.s * jp.u == c and is_unipotent_matrix(jp.u)


def _is_unipotent_flag(flag, gens):
    """(g - 1) V_i lies in V_(i+1) for every generator g and level i."""
    ident = Matrix.identity(gens[0].field, gens[0].n)
    return all(
        contains(below, apply(g - ident, v))
        for above, below in zip(flag, flag[1:])
        for g in gens
        for v in above.basis
    )


def test_is_unipotent_group_examples():
    e12 = Matrix.from_ints(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    e23 = Matrix.from_ints(QQ, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    cert = unipotent_flag([e12, e23])
    assert [s.dim for s in cert.flag] == [3, 2, 1, 0]
    assert _is_unipotent_flag(cert.flag, [e12, e23])
    # a flag that skips a level is not one
    assert not _is_unipotent_flag((cert.flag[0], cert.flag[2], cert.flag[3]), [e12, e23])
    a = Matrix.from_ints(QQ, [[1, 1], [0, 1]])
    b = Matrix.from_ints(QQ, [[1, 0], [1, 1]])
    with pytest.raises(NotUnipotent):
        unipotent_flag([a, b])
    ident_cert = unipotent_flag([Matrix.identity(QQ, 4)])
    assert [s.dim for s in ident_cert.flag] == [4, 0]
    assert _is_unipotent_flag(ident_cert.flag, [Matrix.identity(QQ, 4)])


def test_reduction_split_examples():
    e12 = Matrix.from_ints(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    e23 = Matrix.from_ints(QQ, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    sr = reduction_split(GroupSpec(QQ, [e12, e23]))
    assert all(s.is_identity() for s in sr.gens_s)
    assert sr.gens_u == (e12, e23)
    assert _is_unipotent_flag(sr.cert_u.flag, sr.gens_u)

    bad = GroupSpec(QQ, [Matrix.from_ints(QQ, [[1, 1], [0, 1]]), Matrix.from_ints(QQ, [[-1, 0], [0, 1]])])
    with pytest.raises(NotNilpotentSignal) as exc:
        reduction_split(bad)
    assert exc.value.witness.kind == "non_commuting_pair"

    sc = reduction_split(GroupSpec(QQ, [Matrix.from_ints(QQ, [[2, 2], [0, 2]])]))
    assert sc.gens_s[0] == Matrix.from_ints(QQ, [[2, 0], [0, 2]])
    assert sc.gens_u[0] == Matrix.from_ints(QQ, [[1, 1], [0, 1]])


def test_commutation_check_skips_scalar_parts(monkeypatch):
    """A scalar diagonalizable part commutes with every unipotent part, so
    the commutation loop forms no product against it.  On heisenberg(3, Q)
    = <e12, e23> both diagonalizable parts are I, and neither the Jordan
    split nor the flag forms a product, so each counted product would be
    the loop's: it forms none.  A failing non-scalar pair after a scalar
    part still gives the non_commuting_pair witness on that pair."""
    counted = []
    product = Matrix.__mul__

    def counting(a, b):
        counted.append(1)
        return product(a, b)

    e12 = Matrix.from_ints(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    e23 = Matrix.from_ints(QQ, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    with monkeypatch.context() as m:
        m.setattr(Matrix, "__mul__", counting)
        sr = reduction_split(GroupSpec(QQ, [e12, e23]))
    assert sr.gens_u == (e12, e23) and all(s.is_identity() for s in sr.gens_s)
    assert len(counted) == 0

    u = Matrix.from_ints(QQ, [[1, 1], [0, 1]])
    s = Matrix.from_ints(QQ, [[-1, 0], [0, 1]])
    with pytest.raises(NotNilpotentSignal) as exc:
        reduction_split(GroupSpec(QQ, [Matrix.from_ints(QQ, [[2, 0], [0, 2]]), u, s]))
    w = exc.value.witness
    assert (w.kind, w.context) == ("non_commuting_pair", "jordan_parts")
    assert [(i.label, i.mat, i.word, i.data) for i in w.items] == [
        ("x", u, ((1, 1),), {"part": "u", "generator": 1}),
        ("y", s, ((2, 1),), {"part": "s", "generator": 2}),
    ]


def test_identity_unipotent_parts_cost_no_field_work(monkeypatch):
    """When every generator's characteristic polynomial is squarefree,
    reduction_split forms no matrix product and no inverse: each generator
    is its own diagonalizable part and the flag is (V, 0).  A
    diagonalizable generator with a repeated eigenvalue is its own part
    too, found by one evaluation of f* with no inverse.  is_nilpotent
    reduces and lifts G itself instead of a copy of its diagonalizable
    parts; a nontrivial unipotent part beside a non-scalar diagonalizable
    part still gets its products."""
    from nilmat import nilpotency, splitting

    counted = []
    product, invert = Matrix.__mul__, splitting.inverse

    def counting(a, b):
        counted.append(1)
        return product(a, b)

    def counting_inverse(a):
        counted.append(1)
        return invert(a)

    d8 = GroupSpec(QQ, [Matrix.from_ints(QQ, [[0, -1], [1, 0]]), Matrix.from_ints(QQ, [[1, 0], [0, -1]])])
    mixed = GroupSpec(
        QQ, [Matrix.from_ints(QQ, [[2, 0, 0], [0, 2, 0], [0, 0, 1]]), Matrix.from_ints(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])]
    )
    for G, free in ((d8, True), (mixed, False)):
        counted.clear()
        with monkeypatch.context() as m:
            m.setattr(Matrix, "__mul__", counting)
            m.setattr(splitting, "inverse", counting_inverse)
            sr = reduction_split(G)
        assert (not counted) == free
        if free:
            assert [w.dim for w in sr.cert_u.flag] == [2, 0]
    # eigenvalues 1, 1, -1: f* = t^2 - 1 has degree 2 < 3 and f*(g) = 0
    swap = Matrix.from_ints(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    counted.clear()
    with monkeypatch.context() as m:
        m.setattr(splitting, "inverse", counting_inverse)
        jp = jordan(swap)
    assert not counted
    assert jp.s is swap and jp.u.is_identity()
    lifted = []
    kernel_gens = nilpotency._kernel_gens

    def recording(lift, covers, sylow):
        lifted.append(lift)
        return kernel_gens(lift, covers, sylow)

    monkeypatch.setattr(nilpotency, "_kernel_gens", recording)
    assert nilpotency.is_nilpotent(d8).nilpotent
    assert len(lifted) == 1 and all(s.mat is g for s, g in zip(lifted[0], d8.gens, strict=True))


def test_reduction_split_proves_each_unipotent_part_once(monkeypatch):
    """On UT3(Q) and the Heisenberg group every generator has f* = t - 1,
    so reduction_split inverts no matrix and tests no part unipotent: the
    Cayley-Hamilton argument is the proof.  A part from Newton's iteration
    is tested once, by jordan, and not again for the flag."""
    from nilmat import splitting

    e12 = Matrix.from_ints(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    e13 = Matrix.from_ints(QQ, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    e23 = Matrix.from_ints(QQ, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    block = Matrix.from_ints(QQ, [[2, 1, 0], [0, 2, 0], [0, 0, 3]])
    cases = [([e12, e13, e23], 0, 0), ([e12, e23], 0, 0), ([block], 1, 2)]
    invert, test = splitting.inverse, splitting.is_unipotent_matrix
    for gens, most_tests, most_inverses in cases:
        inverted, tested = [], []
        with monkeypatch.context() as m:
            m.setattr(splitting, "inverse", lambda a: inverted.append(a) or invert(a))
            m.setattr(splitting, "is_unipotent_matrix", lambda g: tested.append(g) or test(g))
            sr = reduction_split(GroupSpec(QQ, gens))
        nontrivial = [u for u in sr.gens_u if not u.is_identity()]
        assert len(nontrivial) == len(gens)
        assert len(tested) == most_tests <= len(nontrivial)
        assert len(inverted) <= most_inverses
        assert _is_unipotent_flag(sr.cert_u.flag, sr.gens_u)
    assert sr.gens_u[0] == Matrix.make(QQ, [[QQ.one, QQ.parse("1/2"), QQ.zero], [QQ.zero, QQ.one, QQ.zero], [QQ.zero, QQ.zero, QQ.one]])


def _unipotent(field, n, rng):
    """A random conjugate of a random upper unitriangular matrix."""
    o, z = field.one, field.zero
    rows = [[o if i == j else field.random_element(rng, 2) if j > i else z for j in range(n)] for i in range(n)]
    t = random_invertible(field, n, rng)
    return t * Matrix.make(field, rows) * inverse(t)


@pytest.mark.parametrize("field", [QQ, NumberField((-2, 0, 1)), FunctionField(QQ)], ids=lambda f: f.name())
def test_jordan_of_scaled_unipotent_matches_reference(field):
    """jordan(c u), whose f* is t - c, equals the reference's Newton
    iteration on the Krylov minimal polynomial, for c in {1, 2, -1/3},
    u unipotent or 1, and n from 1 to 3."""
    import reference as ref

    rng = random.Random(31)
    third = field.inv(field.from_int(-3))
    for n in (1, 2, 3):
        us = [Matrix.identity(field, n)] + [_unipotent(field, n, rng) for _ in range(2 if n > 1 else 0)]
        for c in (field.one, field.from_int(2), third):
            for u in us:
                g = u * c
                jp = jordan(g)
                assert (jp.s, jp.u, jp.minpoly_s) == ref.jordan(g), (n, c, u)
                assert jp.minpoly_s.degree == 1


def test_reduction_split_never_rejects_oracle_nilpotent_groups(ff_corpus, ff_oracle):
    """Closure-verified nilpotent groups over finite fields always split."""
    for entry in ff_corpus:
        if not ff_oracle[entry.name]["nilpotent"]:
            continue
        sr = reduction_split(entry.group)
        assert all(s * u == u * s for s, u in zip(sr.gens_s, sr.gens_u)), entry.name
        assert _is_unipotent_flag(sr.cert_u.flag, sr.gens_u), entry.name


def test_cr_series_examples():
    """The module series with completely reducible factors is the flag of
    the unipotent parts."""

    def cr_series(G):
        sr = reduction_split(G)
        assert _is_unipotent_flag(sr.cert_u.flag, sr.gens_u)
        return sr.cert_u.flag

    r = Matrix.from_ints(QQ, [[0, -1], [1, 0]])
    s = Matrix.from_ints(QQ, [[1, 0], [0, -1]])
    flag = cr_series(GroupSpec(QQ, [r, s]))
    assert [w.dim for w in flag] == [2, 0]
    e12 = Matrix.from_ints(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    e23 = Matrix.from_ints(QQ, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    flag2 = cr_series(GroupSpec(QQ, [e12, e23]))
    assert [w.dim for w in flag2] == [3, 2, 1, 0]
    flag3 = cr_series(GroupSpec(QQ, [Matrix.from_ints(QQ, [[2, 2], [0, 2]])]))
    assert [w.dim for w in flag3] == [2, 1, 0]


def test_finite_order_examples():
    F13 = FiniteField(13)
    assert finite_order(Matrix.from_ints(F13, [[2]])) == 12
    for rows in ([[-1, 0], [0, 1]], [[2]], [[0, -1], [1, 0]], [[1, 1], [0, 1]]):
        with pytest.raises(ValueError):
            finite_order(Matrix.from_ints(QQ, rows))


def test_finite_order_divisor_property():
    rng = random.Random(41)
    F = FiniteField(7)
    for _ in range(40):
        m = random_invertible(F, 2, rng)
        k = finite_order(m)
        assert k is not None
        assert (m**k).is_identity()
        for d in range(1, k):
            if k % d == 0 and d < k:
                assert not (m**d).is_identity()


def test_has_infinite_order_function_field_char_p():
    """Over GF(5)(X), X * e11 has a nonconstant characteristic polynomial and
    infinite order, diag(2, 1) a constant one and order 4; element orders
    themselves are computed over finite fields only."""
    ffp = FunctionField(FiniteField(5))
    x = ffp.x()
    g = Matrix.make(ffp, [[x, ffp.zero], [ffp.zero, ffp.one]])
    assert has_infinite_order(g)
    c = Matrix.make(ffp, [[ffp.from_int(2), ffp.zero], [ffp.zero, ffp.one]])
    assert not has_infinite_order(c)
    assert (c**4).is_identity() and not (c**2).is_identity()
    with pytest.raises(ValueError):
        finite_order(c)
    with pytest.raises(ValueError):
        has_infinite_order(Matrix.from_ints(QQ, [[2]]))
