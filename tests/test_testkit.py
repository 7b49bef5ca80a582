"""Closure oracle and corpus generators."""

import random

import pytest

from nilmat.errors import CapExceeded, NonexistenceError, UnsupportedTwoCase
from nilmat.fields import QQ, FiniteField
from nilmat.groups import GroupSpec, enumerate_group
from nilmat.linalg import Matrix
from nilmat.nilpotency import is_nilpotent
from nilmat.structure import analyze
from nilmat.testkit import (
    closure,
    gen_max_abs_irr_nilpotent,
    gen_reducible_nilpotent,
    oracle_invariants,
)
from reference import spin_dim


def _m(field, rows):
    return Matrix.from_ints(field, rows)


def test_closure_examples():
    c = closure([Matrix.identity(QQ, 2)], 10)
    assert len(c) == 1 and not c.overflowed
    d8 = [_m(QQ, [[0, -1], [1, 0]]), _m(QQ, [[1, 0], [0, -1]])]
    c8 = closure(d8, 100)
    assert len(c8) == 8
    cinf = closure([_m(QQ, [[2]])], 100)
    assert cinf.overflowed and cinf.cap == 100


def test_closure_generation_order_independent():
    rng = random.Random(13)
    F = FiniteField(5)
    gens = [
        Matrix.diagonal(F, (2, 1)),
        _m(F, [[0, 1], [1, 0]]),
        Matrix.diagonal(F, (2, 2)),
    ]
    baseline = set(closure(gens, 1000).elements)
    for _ in range(4):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert set(closure(shuffled, 1000).elements) == baseline


def test_closure_elts_tracks_words():
    """The pipeline's enumeration engine tracks a word per element and
    agrees with the oracle's closure."""
    d8 = GroupSpec(QQ, [_m(QQ, [[0, -1], [1, 0]]), _m(QQ, [[1, 0], [0, -1]])])
    enum = enumerate_group(d8.gens, 100)
    assert len(enum) == 8 and not enum.overflowed
    assert {enum.vertex(v) for v in range(8)} == set(closure(list(d8.gens), 100).elements)
    for v in range(8):
        assert d8.evaluate(enum.word(v)) == enum.vertex(v)
    assert enumerate_group([_m(QQ, [[2]])], 10).overflowed


def _check_cayley_rows(enum, gens, rows):
    """The first `rows` rows of the table hold the products' indices, and
    every vertex's word is its parent's word plus one letter."""
    k = len(gens)
    vertices = [enum.vertex(v) for v in range(len(enum))]
    words = [enum.word(v) for v in range(len(enum))]
    index = {m: v for v, m in enumerate(vertices)}
    assert enum.ngens == k and enum.parents[0] == -1
    for v in range(rows):
        for i, g in enumerate(gens):
            assert enum.table[v * k + i] == index[vertices[v] * g], (v, i)
    for v in range(1, len(enum)):
        u = enum.parents[v]
        i = words[v][-1][0]
        assert u < v and words[v] == words[u] + ((i, 1),)
        assert vertices[v] == vertices[u] * gens[i]


def test_enumeration_records_cayley_table():
    """The engine records table[v][i] = index of v * g_i and each vertex's
    tree parent; an overflowed enumeration keeps its completed rows."""
    d8 = [_m(QQ, [[0, -1], [1, 0]]), _m(QQ, [[1, 0], [0, -1]])]
    q8sq = _q8_power(2)
    for gens, size in ((d8, 8), (q8sq, 64)):
        enum = enumerate_group(gens, 100)
        assert len(enum) == size and len(enum.table) == size * len(gens)
        _check_cayley_rows(enum, gens, size)
    for gens, cap in ((q8sq, 20), (d8, 7), ([_m(QQ, [[2]])], 10)):
        enum = enumerate_group(gens, cap)
        assert enum.overflowed and len(enum) == cap
        rows, rest = divmod(len(enum.table), len(gens))
        assert rest == 0 and 0 < rows < cap
        _check_cayley_rows(enum, gens, rows)


def test_oracle_invariants_examples():
    d8 = closure([_m(QQ, [[0, -1], [1, 0]]), _m(QQ, [[1, 0], [0, -1]])], 100)
    oi = oracle_invariants(d8)
    assert oi == {"order": 8, "nilpotent": True, "class": 2, "center": 2}
    s3 = closure(
        [_m(QQ, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]), _m(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])],
        100,
    )
    oi2 = oracle_invariants(s3)
    assert oi2["order"] == 6 and not oi2["nilpotent"] and oi2["class"] is None
    triv = oracle_invariants(closure([Matrix.identity(QQ, 1)], 10))
    assert triv == {"order": 1, "nilpotent": True, "class": 0, "center": 1}


def _unitriangular(F, n):
    """The generators E_(i,i+1) of UT(n)."""
    return [
        _m(F, [[1 if a == b or (a == i and b == i + 1) else 0 for b in range(n)] for a in range(n)])
        for i in range(n - 1)
    ]


def _dihedral(p, k):
    """Dihedral group of order 2^(k+1) over GF(p), monomial form."""
    F = FiniteField(p)
    z = F.element_of_order(2**k)
    return [Matrix.diagonal(F, (z, F.inv(z))), _m(F, [[0, 1], [1, 0]])]


def _q8_power(k):
    """Block-diagonal Q8^k <= GL(2k, 3): an i and a j in each block."""
    F = FiniteField(3)
    gens = []
    for b in range(k):
        for x in ([[0, -1], [1, 0]], [[1, 1], [1, -1]]):
            rows = [[0] * (2 * k) for _ in range(2 * k)]
            for i in range(2 * k):
                rows[i][i] = 1
            for i in range(2):
                for j in range(2):
                    rows[2 * b + i][2 * b + j] = x[i][j]
            gens.append(_m(F, rows))
    return gens


def test_oracle_invariants_match_formulas():
    """Order, nilpotency, class and center of families whose invariants are
    known in closed form; GL(2,3) and SL(2,3) stall at a center of order 2."""
    F3, F5 = FiniteField(3), FiniteField(5)
    cases = [(_dihedral(p, k), 2 ** (k + 1), True, k, 2) for p, k in ((17, 4), (97, 5))]
    cases += [(_unitriangular(FiniteField(p), n), p ** (n * (n - 1) // 2), True, n - 1, p) for p, n in ((5, 3), (7, 3), (3, 4))]
    cases += [(_q8_power(k), 8**k, True, 2, 2**k) for k in (2, 3)]
    cases.append((_dihedral(257, 8), 512, True, 8, 2))
    cases.append(([_m(F3, [[1, 1], [0, 1]]), _m(F3, [[0, 1], [1, 0]])], 48, False, None, 2))
    cases.append(([_m(F3, [[1, 1], [0, 1]]), _m(F3, [[1, 0], [1, 1]])], 24, False, None, 2))
    s3 = [_m(F5, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]), _m(F5, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])]
    cases.append((s3, 6, False, None, 1))
    for gens, order, nilpotent, klass, center in cases:
        oi = oracle_invariants(closure(gens, 10**4))
        assert oi == {"order": order, "nilpotent": nilpotent, "class": klass, "center": center}, gens


def test_oracle_products_linear_in_order(monkeypatch):
    """The oracle forms O(class * |G| * |gens|) products, not |G|^2: on
    UT4(3) at most 3 (class + 1) |G| |gens|."""
    gens = _unitriangular(FiniteField(3), 4)
    c = closure(gens, 10**4)
    calls = []
    mul = Matrix.__mul__

    def counting(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(Matrix, "__mul__", counting)
    oi = oracle_invariants(c)
    monkeypatch.undo()
    assert oi == {"order": 729, "nilpotent": True, "class": 3, "center": 3}
    assert len(calls) <= 3 * (oi["class"] + 1) * len(c) * len(gens)


def test_gen_max_abs_irr_examples():
    G = gen_max_abs_irr_nilpotent(2, 5, 1)
    c = closure(list(G.gens), 10**4)
    oi = oracle_invariants(c)
    assert oi["order"] == 32 and oi["nilpotent"]
    assert spin_dim(list(G.gens)) == 4
    with pytest.raises(NonexistenceError):
        gen_max_abs_irr_nilpotent(3, 5, 1)
    with pytest.raises(UnsupportedTwoCase):
        gen_max_abs_irr_nilpotent(2, 3, 1)
    G37 = gen_max_abs_irr_nilpotent(3, 7, 1)
    oi37 = oracle_invariants(closure(list(G37.gens), 10**4))
    assert oi37["nilpotent"]
    assert spin_dim(list(G37.gens)) == 9


def test_gen_max_abs_irr_composite_degree():
    # n = 6 = 2 * 3 over GF(13): kronecker of the two prime-power pieces
    G = gen_max_abs_irr_nilpotent(6, 13, 1)
    assert G.degree == 6
    assert spin_dim(list(G.gens)) == 36
    v = is_nilpotent(G)
    assert v.nilpotent


def test_gen_max_abs_irr_sweep():
    """All qualifying parameters with degree <= 4 and q <= 25: construction,
    nilpotency, absolute irreducibility.  The 2-components beyond the desk
    closure budget assert the typed budget error instead."""
    from nilmat.config import DEFAULT
    from nilmat.nilpotency import is_finite_nilpotent

    cases = []
    for q, p, l in ((4, 2, 2), (5, 5, 1), (7, 7, 1), (9, 3, 2), (13, 13, 1), (16, 2, 4), (17, 17, 1), (19, 19, 1), (23, 23, 1), (25, 5, 2)):
        for n in (2, 3, 4):
            legal = True
            for r in (2, 3):
                if n % r == 0 and (q - 1) % r != 0:
                    legal = False
            if n % 2 == 0 and q % 4 == 3:
                legal = False
            if legal:
                cases.append((n, p, l, q))
    assert len(cases) >= 8
    big = 0
    for n, p, l, q in cases:
        G = gen_max_abs_irr_nilpotent(n, p, l)
        assert spin_dim(list(G.gens)) == n * n
        # predicted 2-part sizes beyond 10^4 are out of closure budget
        two_part = 1
        if n == 4:
            s = 1
            m = q - 1
            while m % 2 == 0:
                s += 1
                m //= 2
            two_part = (2 ** (s - 1) * 2 ** (s - 1) * 2) ** 2 * 2
        if two_part > 10**4:
            big += 1
            with pytest.raises(CapExceeded):
                is_finite_nilpotent(G, DEFAULT.with_(closure_cap=10**4))
        else:
            v = is_finite_nilpotent(G)
            assert v.nilpotent, (n, p, l)
    assert big >= 1


def test_gen_reducible_nilpotent_examples():
    base = GroupSpec(QQ, [Matrix.identity(QQ, 1)])
    G = gen_reducible_nilpotent(base)
    assert any(g == _m(QQ, [[1, 1], [0, 1]]) for g in G.gens)
    d8 = GroupSpec(QQ, [_m(QQ, [[0, -1], [1, 0]]), _m(QQ, [[1, 0], [0, -1]])])
    Gd = gen_reducible_nilpotent(d8)
    assert Gd.degree == 4
    v = is_nilpotent(Gd)
    assert v.nilpotent
    assert analyze(Gd).completely_reducible is False
    # over a finite field the construction stays nilpotent and reducible
    F5 = FiniteField(5)
    d8f = GroupSpec(F5, [_m(F5, [[0, -1], [1, 0]]), _m(F5, [[1, 0], [0, -1]])])
    Gf = gen_reducible_nilpotent(d8f)
    oi = oracle_invariants(closure(list(Gf.gens), 10**4))
    assert oi["nilpotent"] and oi["order"] == 40
    assert analyze(Gf).completely_reducible is False


def test_reducible_base_scalars():
    base = GroupSpec(QQ, [_m(QQ, [[2, 0], [0, 2]])])
    G = gen_reducible_nilpotent(base)
    assert G.degree == 4
    assert is_nilpotent(G).nilpotent
