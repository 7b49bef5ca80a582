"""Exact linear algebra."""

import random
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilmat.errors import Singular
from nilmat.fields import QQ, Field, FiniteField, FunctionField, NumberField
from nilmat.linalg import (
    Matrix,
    Subspace,
    charpoly,
    fixed_space,
    inverse,
    kron,
    nullspace,
    poly_at_matrix,
    quotient_action,
    rref,
)
from nilmat.poly import Poly
from reference import apply, contains, minimal_polynomial, spin_dim


def random_invertible(field, n, rng, size=3):
    while True:
        m = Matrix.make(field, [[field.random_element(rng, size) for _ in range(n)] for _ in range(n)])
        try:
            inverse(m)
            return m
        except Singular:
            continue


FIELDS = [QQ, FiniteField(5), FiniteField(3, 2), NumberField((-2, 0, 1))]


def test_inverse_examples():
    assert inverse(Matrix.identity(QQ, 3)) == Matrix.identity(QQ, 3)
    m = Matrix.from_ints(QQ, [[1, 1], [0, 1]])
    assert inverse(m) == Matrix.from_ints(QQ, [[1, -1], [0, 1]])
    with pytest.raises(Singular):
        inverse(Matrix.from_ints(QQ, [[1, 1], [1, 1]]))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name())
def test_inverse_random(field):
    rng = random.Random(5)
    for _ in range(15):
        m = random_invertible(field, 3, rng)
        assert (m * inverse(m)).is_identity()


def test_minimal_polynomial_examples():
    assert minimal_polynomial(Matrix.identity(QQ, 3)) == Poly.from_ints(QQ, [-1, 1])
    m = Matrix.from_ints(QQ, [[1, 1], [0, 1]])
    assert minimal_polynomial(m) == Poly.from_ints(QQ, [1, -2, 1])
    rot = Matrix.from_ints(QQ, [[0, -1], [1, 0]])
    f = minimal_polynomial(rot)
    assert f == Poly.from_ints(QQ, [1, 0, 1])
    assert poly_at_matrix(f, rot).rows == Matrix.zero(QQ, 2).rows


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name())
def test_minimal_polynomial_annihilates(field):
    """200 random matrices per field kind: the reference minpoly
    evaluates to zero, has degree at most n and divides charpoly, which is
    monic of degree n."""
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 3)
        m = Matrix.make(field, [[field.random_element(rng, 3) for _ in range(n)] for _ in range(n)])
        f = minimal_polynomial(m)
        assert f.degree >= 1 and f.lc() == field.one
        assert poly_at_matrix(f, m).rows == Matrix.zero(field, n).rows
        assert f.degree <= n
        chi = charpoly(m)
        assert chi.degree == n and chi.lc() == field.one
        assert (chi % f).is_zero()


def test_fixed_space_examples():
    e12 = Matrix.from_ints(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    e23 = Matrix.from_ints(QQ, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    w = fixed_space([e12, e23])
    assert w.dim == 1 and w.basis[0] == (QQ.one, QQ.zero, QQ.zero)
    a = Matrix.from_ints(QQ, [[1, 1], [0, 1]])
    b = Matrix.from_ints(QQ, [[1, 0], [1, 1]])
    assert fixed_space([a, b]).dim == 0
    assert fixed_space([Matrix.identity(QQ, 4)]).dim == 4


def test_fixed_space_dimension_matches_rank():
    rng = random.Random(3)
    F = FiniteField(5)
    for _ in range(30):
        gens = [
            Matrix.make(F, [[F.random_element(rng) for _ in range(3)] for _ in range(3)])
            for _ in range(2)
        ]
        w = fixed_space(gens)
        stacked = []
        ident = Matrix.identity(F, 3)
        for g in gens:
            stacked.extend(list(r) for r in (g - ident).rows)
        _, pivots = rref(F, stacked)
        assert w.dim == 3 - len(pivots)
        for row in w.basis:
            for g in gens:
                assert apply(g, row) == row


def test_quotient_action_examples():
    gens = [Matrix.from_ints(QQ, [[1, 1], [0, 1]])]
    w = Subspace.from_vectors(QQ, 2, [(QQ.one, QQ.zero)])
    q = quotient_action(gens, w)
    assert len(q) == 1 and q[0].rows == ((QQ.one,),)
    d12 = Matrix.from_ints(QQ, [[1, 0], [0, 2]])
    w2 = Subspace.from_vectors(QQ, 2, [(QQ.zero, QQ.one)])
    q2 = quotient_action([d12], w2)
    assert q2[0].rows == ((QQ.one,),)
    assert quotient_action(gens, Subspace.zero(QQ, 2)) == gens


@pytest.mark.parametrize(
    "field",
    [QQ, FiniteField(3, 2), NumberField((-2, 0, 1)), FunctionField(QQ), FunctionField(FiniteField(5))],
    ids=lambda f: f.name(),
)
def test_full_subspace_and_invariance_match_row_reduction(field):
    """Subspace.full is the row reduction of the identity rows, value for
    value; the fixed space of matrices is invariant under them, which
    quotient_action takes on trust, and quotient_action's columns are the
    images of the unit vectors."""
    rng = random.Random(5)
    for n in range(4):
        full = Subspace.full(field, n)
        ref = Subspace.from_vectors(field, n, list(Matrix.identity(field, n).rows))
        assert full == ref and repr(full) == repr(ref)
    n = 3
    mats = [random_invertible(field, n, rng, 2) for _ in range(2)]
    upper = Matrix.make(field, [[field.one if i == j else field.random_element(rng, 2) if j > i else field.zero for j in range(n)] for i in range(n)])
    for ms in ([upper], mats, [upper] + mats):
        w = fixed_space(ms)
        assert all(contains(w, apply(m, b)) for b in w.basis for m in ms)
    w = Subspace.from_vectors(field, n, [(field.one, field.zero, field.zero)])
    (q,) = quotient_action([upper], w)
    units = [tuple(field.one if i == j else field.zero for i in range(n)) for j in (1, 2)]
    cols = [w.reduce_vec(apply(upper, e))[1:] for e in units]
    assert q.rows == tuple(zip(*cols))


def test_quotient_action_is_functorial():
    rng = random.Random(9)
    F = FiniteField(7)
    u = Matrix.from_ints(F, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    v = Matrix.from_ints(F, [[1, 0, 2], [0, 1, 1], [0, 0, 1]])
    w = fixed_space([u, v])
    qu, qv = quotient_action([u, v], w)
    (qprod,) = quotient_action([u * v], w)
    assert qu * qv == qprod


def test_spin_basis_examples():
    """The reference enveloping-algebra dimension the corpus tests read
    absolute irreducibility off."""
    assert spin_dim([Matrix.identity(QQ, 3)]) == 1
    F5 = FiniteField(5)
    img = [Matrix.from_ints(F5, [[2, 0], [0, 1]]), Matrix.from_ints(F5, [[0, 1], [1, 0]])]
    assert spin_dim(img) == 4
    d = Matrix.diagonal(QQ, (QQ.from_int(1), QQ.from_int(2)))
    assert spin_dim([d]) == 2


def test_kron_examples():
    assert kron(Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)) == Matrix.identity(QQ, 6)
    d = Matrix.diagonal(QQ, (QQ.from_int(3), QQ.from_int(5)))
    k = kron(d, Matrix.identity(QQ, 2))
    assert k == Matrix.diagonal(QQ, tuple(QQ.from_int(v) for v in (3, 3, 5, 5)))


@given(st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=30, deadline=None)
def test_kron_mixed_product(a0, b0):
    rng = random.Random(a0 * 17 + b0)
    F = FiniteField(7)
    mats = [
        Matrix.make(F, [[F.random_element(rng) for _ in range(2)] for _ in range(2)])
        for _ in range(4)
    ]
    a, b, c, d = mats
    assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


def test_nullspace_and_rref_rational_blowup_control():
    rows = [
        [QQ.parse("1/2"), QQ.parse("1/3"), QQ.parse("1")],
        [QQ.parse("2"), QQ.parse("4/3"), QQ.parse("4")],
    ]
    red, pivots = rref(QQ, rows)
    assert pivots == [0]
    ns = nullspace(QQ, rows, 3)
    assert len(ns) == 2
    for v in ns:
        for row in rows:
            acc = QQ.zero
            for a, b in zip(row, v):
                acc += a * b
            assert acc == 0


def schoolbook(field, rows, cols):
    out = []
    for row in rows:
        orow = []
        for col in cols:
            acc = field.zero
            for a, b in zip(row, col):
                acc = field.add(acc, field.mul(a, b))
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


def mixed_rational(rng, size=None):
    return Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 4, 6, 9, 10, 35]))


KERNEL_FIELDS = [
    FiniteField(3),
    FiniteField(13),
    FiniteField(101),
    FiniteField(2, 2),
    FiniteField(3, 2),
    FiniteField(2, 5),
    FiniteField(5, 3),
    QQ,
    NumberField((-2, 0, 1)),
    NumberField((1, 0, 1)),
    NumberField((-2, -1, 0, 1)),
    FunctionField(QQ),
    FunctionField(FiniteField(5)),
]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda f: f.name())
def test_matmul_kernel_matches_schoolbook(field):
    """Each field's product kernel returns exactly the values, types and
    representations of the add/mul loop, on square and non-square shapes."""
    rng = random.Random(31)
    entry = mixed_rational if field is QQ else field.random_element
    shapes = [(1, 1, 1), (3, 3, 3), (2, 5, 3), (4, 1, 2), (3, 2, 1), (6, 6, 6)]
    if not isinstance(field, FunctionField):
        shapes += [(8, 8, 8), (2, 17, 3)]
    for n, k, m in shapes:
        for _ in range(3):
            a = Matrix.make(field, [[entry(rng) for _ in range(k)] for _ in range(n)])
            b = Matrix.make(field, [[entry(rng) for _ in range(m)] for _ in range(k)])
            cols = tuple(zip(*b.rows))
            got = field.matmul(a.rows, cols)
            want = schoolbook(field, a.rows, cols)
            assert got == want and repr(got) == repr(want), (n, k, m)
            assert (a * b).rows == want


@pytest.mark.parametrize(
    "field",
    [FunctionField(QQ), FunctionField(FiniteField(5)), FunctionField(FiniteField(3, 2))],
    ids=lambda f: f.name(),
)
def test_function_field_matmul_kernel_edge_cases(field):
    """The function-field kernel returns the add/mul loop's canonical
    (num, den) pairs on zero rows and columns, all-polynomial entries
    (every denominator 1), entries sharing a denominator, and large shapes."""
    rng = random.Random(47)
    B, one = field.base, field.one[1]
    shared = [(B.one, B.one), (B.from_int(2), B.zero, B.one)]  # X + 1, X^2 + 2

    def numerator():
        return tuple(B.random_element(rng) for _ in range(rng.randint(1, 3)))

    def polynomial(rng):
        return field.make(numerator(), one)

    def sharing(rng):
        return field.make(numerator(), rng.choice(shared))

    def mixed(rng):
        return field.zero if rng.random() < 0.3 else field.random_element(rng)

    shapes = [(1, 1, 1), (3, 3, 3), (2, 5, 3), (8, 8, 8), (2, 17, 3)]
    for entry in (polynomial, sharing, mixed):
        for n, k, m in shapes:
            a = [[entry(rng) for _ in range(k)] for _ in range(n)]
            b = [[entry(rng) for _ in range(m)] for _ in range(k)]
            a[0] = [field.zero] * k
            for row in b:
                row[-1] = field.zero
            a, b = Matrix.make(field, a), Matrix.make(field, b)
            cols = tuple(zip(*b.rows))
            got = field.matmul(a.rows, cols)
            want = schoolbook(field, a.rows, cols)
            assert got == want and repr(got) == repr(want), (entry.__name__, n, k, m)
            assert (a * b).rows == want


@pytest.mark.parametrize("p, inner", [(3, 63), (3, 64), (2, 255), (2, 256), (17, 1)])
def test_matmul_byte_packing_bound(p, inner):
    """GF(p) packs one byte per entry while inner * (p - 1)^2 < 256: both
    sides of the bound agree with the loop, also with every entry p - 1."""
    F = FiniteField(p)
    rng = random.Random(inner)
    for fill in (lambda: p - 1, lambda: F.random_element(rng)):
        rows = tuple(tuple(fill() for _ in range(inner)) for _ in range(3))
        cols = tuple(tuple(fill() for _ in range(inner)) for _ in range(4))
        got = F.matmul(rows, cols)
        want = schoolbook(F, rows, cols)
        assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize(
    "p, l, n, kind",
    [
        (2, 1, 255, bytes), (2, 1, 256, tuple), (17, 1, 15, bytes), (17, 1, 16, tuple),
        (5, 2, 63, bytes), (5, 2, 64, tuple), (3, 1, 63, bytes), (3, 1, 64, bytes),
        (13, 1, 4, bytes), (61, 1, 4, bytes), (61, 1, 5, tuple),
        (2, 2, 3, bytes), (2, 3, 4, bytes), (2, 4, 3, bytes), (2, 5, 3, bytes), (2, 6, 5, bytes),
        (3, 2, 4, bytes), (3, 3, 3, bytes), (7, 2, 3, bytes),
        (3, 4, 3, tuple), (2, 7, 3, tuple),
    ],
)
def test_row_kernel_matches_schoolbook(p, l, n, kind):
    """The row kernel gives the base class's add/mul loop's products with
    all the matrices side by side, on both sides of n(p - 1) < 256, for
    q = 64 against the fallbacks at 81 and 128 and for l = 1..6: on
    random rows and on the worst cases for
    carries, rows of q - 1 against all-ones matrices, whose products have
    every digit p - 1, and against matrices of q - 1, whose unreduced
    products over GF(p) are (p - 1)^2."""
    F = FiniteField(p, l)
    rng = random.Random(n * 1000 + F.q)
    cases = []
    for k in (1, 3) if n < 60 else (1,):
        mats = [Matrix.make(F, [[F.random_element(rng) for _ in range(n)] for _ in range(n)]) for _ in range(k)]
        rows = [tuple(F.random_element(rng) for _ in range(n)) for _ in range(3)]
        cases.append((mats, rows))
    for c in (F.one, F.q - 1):
        full = Matrix.make(F, [[c] * n for _ in range(n)])
        cases.append(([full, full], [(F.q - 1,) * n]))
    for mats, rows in cases:
        ident, act, values = F.row_kernel(mats)
        assert all(type(r) is kind for r in ident)
        _check_row_kernel(F, mats, ident, act, values, [kind(r) for r in rows] + [ident[0], ident[-1]])


def _check_row_kernel(F, mats, ident, act, values, batch):
    """act(batch) gives one list of rows per matrix, each the base class's
    add/mul loop's products of batch's values with that matrix, value for
    value and repr for repr, and the identity rows decode to the identity."""
    n = len(ident)
    assert [values(r) for r in ident] == list(Matrix.identity(F, n).rows)
    got = act(batch)
    assert len(got) == len(mats)
    for m, prods in zip(mats, got):
        want = Field.matmul(F, [values(r) for r in batch], tuple(zip(*m.rows)))
        decoded = [values(r) for r in prods]
        assert decoded == list(want) and repr(decoded) == repr(list(want))
    return got


def _big(rng):
    """A 40-digit rational of either sign with a denominator."""
    return Fraction(rng.randint(-(10**40), 10**40), rng.randint(1, 10**6))


@pytest.mark.parametrize(
    "F",
    [QQ, NumberField((-2, 0, 1)), NumberField((1, 0, 1)), NumberField((-2, -1, 0, 1)), FunctionField(QQ)],
    ids=lambda f: f.name(),
)
def test_char0_row_kernel_matches_schoolbook(F):
    """The integer rows over Q and Q(a), and the value tuples over Q(X):
    products of rows with denominators, negative entries and 40-digit
    entries decode to the add/mul loop's, and rows reached by different
    products with equal values are equal and hash equal, here r A A^-1 = r
    and r (2I) (I/2) = r."""
    rng = random.Random(F.name())
    if isinstance(F, FunctionField):
        # the base class's value tuples; large entries would only slow the
        # rational-function gcds of inverse(A)
        entry = lambda: F.random_element(rng)
    elif isinstance(F, NumberField):
        entry = lambda: tuple(_big(rng) for _ in range(F.degree))
    else:
        entry = lambda: _big(rng)
    for n in (1, 2, 3):
        A = Matrix.make(F, [[entry() for _ in range(n)] for _ in range(n)])
        two = Matrix.identity(F, n) * F.from_int(2)
        mats = [A, inverse(A), two, inverse(two)]
        ident, act, values = F.row_kernel(mats)
        rows_a, rows_ainv, rows_two, _ = _check_row_kernel(F, mats, ident, act, values, list(ident))
        batch = rows_a + rows_ainv + rows_two
        prods = _check_row_kernel(F, mats, ident, act, values, batch)
        assert prods[1][:n] == list(ident) and list(map(hash, prods[1][:n])) == list(map(hash, ident))
        if not isinstance(F, FunctionField):
            # (d, integer numerators...): no Fraction is built in act
            assert all(type(x) is int for r in chain(batch, *prods) for x in r)
        again = _check_row_kernel(F, mats, ident, act, values, prods[2])
        assert again[3] == batch and list(map(hash, again[3])) == list(map(hash, batch))
