"""Shared corpus of example groups with constructed-by-design labels.

Finite groups additionally get their ground truth from the brute-force
oracle; labels here record what the construction guarantees.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from random import Random

from nilmat.fields import QQ, FiniteField, FunctionField
from nilmat.groups import GroupSpec
from nilmat.linalg import Matrix, inverse, kron
from nilmat.testkit import gen_max_abs_irr_nilpotent, gen_reducible_nilpotent


@dataclass
class CorpusGroup:
    name: str
    group: GroupSpec
    nilpotent: bool
    finite: bool
    order: int | None = None  # known exact order for finite entries


def _m(field, rows):
    return Matrix.from_ints(field, rows)


def _blockdiag(field, a, b):
    na, nb = a.n, b.n
    rows = []
    for i in range(na + nb):
        row = []
        for j in range(na + nb):
            if i < na and j < na:
                row.append(a.rows[i][j])
            elif i >= na and j >= na:
                row.append(b.rows[i - na][j - na])
            else:
                row.append(field.zero)
        rows.append(row)
    return Matrix.make(field, rows)


# conjugators used to multiply the corpus without changing any invariants
_CONJ = {
    1: [[[1]]],
    2: [[[1, 1], [0, 1]], [[2, 1], [1, 1]]],
    3: [[[1, 1, 0], [0, 1, 1], [0, 0, 1]], [[1, 0, 1], [0, 1, 0], [1, 1, 0]]],
    4: [[[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]],
    5: [],
    6: [],
}


def _conjugate(entry: CorpusGroup, t: Matrix, name: str):
    tinv = inverse(t)
    gens = [t * g * tinv for g in entry.group.gens]
    return CorpusGroup(name, GroupSpec(t.field, gens), entry.nilpotent, entry.finite, entry.order)


def conjugated_variants(entry: CorpusGroup, count=2):
    F = entry.group.field
    rows = _CONJ.get(entry.group.degree, [])[:count]
    return [_conjugate(entry, Matrix.from_ints(F, r), f"{entry.name}-conj{k}") for k, r in enumerate(rows)]


def denominator_conjugate(entry: CorpusGroup):
    """entry conjugated by diag(3, 1, ..., 1) plus ones on the
    superdiagonal, an integer matrix of determinant 3, so the generators
    gain entries with denominator 3 while every invariant stays."""
    n = entry.group.degree
    rows = [[int(i == j) + int(j == i + 1) for j in range(n)] for i in range(n)]
    rows[0][0] = 3
    return _conjugate(entry, Matrix.from_ints(entry.group.field, rows), f"{entry.name}-den3")


def rational_corpus():
    Q = QQ
    rot4 = _m(Q, [[0, -1], [1, 0]])
    refl = _m(Q, [[1, 0], [0, -1]])
    swap = _m(Q, [[0, 1], [1, 0]])
    rot6 = _m(Q, [[0, -1], [1, 1]])  # companion of X^2 - X + 1
    e12 = _m(Q, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    e13 = _m(Q, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    e23 = _m(Q, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    u2 = _m(Q, [[1, 1], [0, 1]])
    c3 = _m(Q, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    t12 = _m(Q, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    # quaternion group inside GL(4, Z)
    qi = _m(Q, [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    qj = _m(Q, [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
    # permutation matrices for S4 / A4
    p4_0 = _m(Q, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])  # (12)
    p4_1 = _m(Q, [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])  # 4-cycle
    a4_0 = _m(Q, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])  # (12)(34)
    a4_1 = _m(Q, [[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])  # (123)
    comp5 = _m(Q, [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]])
    comp8 = _m(Q, [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    comp12 = _m(Q, [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0]])

    d8 = GroupSpec(Q, [rot4, refl])
    entries = [
        CorpusGroup("trivial", GroupSpec(Q, [Matrix.identity(Q, 2)]), True, True, 1),
        CorpusGroup("C2", GroupSpec(Q, [_m(Q, [[-1, 0], [0, 1]])]), True, True, 2),
        CorpusGroup("C3-companion", GroupSpec(Q, [_m(Q, [[0, -1], [1, -1]])]), True, True, 3),
        CorpusGroup("C4-rotation", GroupSpec(Q, [rot4]), True, True, 4),
        CorpusGroup("C6-companion", GroupSpec(Q, [rot6]), True, True, 6),
        CorpusGroup("C5-companion", GroupSpec(Q, [comp5]), True, True, 5),
        CorpusGroup("C8-companion", GroupSpec(Q, [comp8]), True, True, 8),
        CorpusGroup("C12-companion", GroupSpec(Q, [comp12]), True, True, 12),
        CorpusGroup("C2xC2", GroupSpec(Q, [_m(Q, [[-1, 0], [0, 1]]), _m(Q, [[1, 0], [0, -1]])]), True, True, 4),
        CorpusGroup("D8", d8, True, True, 8),
        CorpusGroup("D8-signed", GroupSpec(Q, [_m(Q, [[-1, 0], [0, 1]]), swap]), True, True, 8),
        CorpusGroup("Q8", GroupSpec(Q, [qi, qj]), True, True, 8),
        CorpusGroup(
            "D8xC2",
            GroupSpec(
                Q,
                [
                    _blockdiag(Q, rot4, _m(Q, [[1]])),
                    _blockdiag(Q, refl, _m(Q, [[-1]])),
                    _blockdiag(Q, Matrix.identity(Q, 2), _m(Q, [[-1]])),
                ],
            ),
            True,
            True,
            16,
        ),
        CorpusGroup(
            "C4xC4",
            GroupSpec(Q, [_blockdiag(Q, rot4, Matrix.identity(Q, 2)), _blockdiag(Q, Matrix.identity(Q, 2), rot4)]),
            True,
            True,
            16,
        ),
        CorpusGroup("C4tensorC4", GroupSpec(Q, [kron(rot4, rot4), kron(rot4, Matrix.identity(Q, 2))]), True, True, 8),
        # finite, not nilpotent
        CorpusGroup("S3", GroupSpec(Q, [c3, t12]), False, True, 6),
        CorpusGroup("A4", GroupSpec(Q, [a4_0, a4_1]), False, True, 12),
        CorpusGroup("S4", GroupSpec(Q, [p4_0, p4_1]), False, True, 24),
        CorpusGroup("D12", GroupSpec(Q, [rot6, swap]), False, True, 12),
        CorpusGroup("S3xC4", GroupSpec(Q, [_blockdiag(Q, c3, rot4), _blockdiag(Q, t12, Matrix.identity(Q, 2))]), False, True, 24),
        # infinite nilpotent
        CorpusGroup("heisenberg", GroupSpec(Q, [e12, e23]), True, False),
        CorpusGroup("UT3", GroupSpec(Q, [e12, e13, e23]), True, False),
        CorpusGroup("Z-unipotent", GroupSpec(Q, [u2]), True, False),
        CorpusGroup("Z-diag2", GroupSpec(Q, [_m(Q, [[2]])]), True, False),
        CorpusGroup("Z-mixed-denominator", GroupSpec(Q, [Matrix.diagonal(Q, (Q.parse("1/2"), Q.parse("3")))]), True, False),
        CorpusGroup("scalar-unipotent", GroupSpec(Q, [_m(Q, [[2, 2], [0, 2]])]), True, False),
        CorpusGroup("rot4-scaled", GroupSpec(Q, [_m(Q, [[0, -2], [2, 0]])]), True, False),
        CorpusGroup("reducible-D8", gen_reducible_nilpotent(d8), True, False),
        CorpusGroup("reducible-C2", gen_reducible_nilpotent(GroupSpec(Q, [_m(Q, [[-1]])])), True, False),
        # infinite, not nilpotent
        CorpusGroup("diag31-swap", GroupSpec(Q, [_m(Q, [[3, 0], [0, 1]]), swap]), False, False),
        CorpusGroup("unipotent-reflection", GroupSpec(Q, [u2, _m(Q, [[-1, 0], [0, 1]])]), False, False),
        CorpusGroup("borel", GroupSpec(Q, [u2, _m(Q, [[2, 0], [0, 1]])]), False, False),
    ]
    return entries


def rational_finite_corpus(min_count=50):
    """At least min_count finite rational groups (conjugates included)."""
    base = [e for e in rational_corpus() if e.finite]
    out = list(base)
    for e in base:
        out.extend(conjugated_variants(e))
    k = 0
    while len(out) < min_count:
        out.extend(conjugated_variants(base[k % len(base)], count=2))
        k += 1
    return out[: max(min_count, len(out))]


def finite_field_corpus():
    """Groups over GF(q), q <= 25, degree <= 6, closure <= 10^4."""
    entries = []
    for q in (3, 5, 7, 9, 11, 13):
        if q == 9:
            F = FiniteField(3, 2)
        else:
            F = FiniteField(q)
        zeta = F.multiplicative_generator()
        one = F.one
        z2 = Matrix.diagonal(F, (zeta, zeta))
        dz1 = Matrix.diagonal(F, (zeta, one))
        d1z = Matrix.diagonal(F, (one, zeta))
        swap = Matrix.from_ints(F, [[0, 1], [1, 0]])
        u2 = Matrix.from_ints(F, [[1, 1], [0, 1]])
        entries.append(CorpusGroup(f"scalars-GF{q}", GroupSpec(F, [z2]), True, True, q - 1))
        entries.append(CorpusGroup(f"diag-GF{q}", GroupSpec(F, [dz1, d1z]), True, True, (q - 1) ** 2))
        entries.append(
            CorpusGroup(
                f"dihedral-monomial-GF{q}",
                GroupSpec(F, [Matrix.diagonal(F, (zeta, F.inv(zeta))), swap]),
                ((q - 1) & (q - 2)) == 0,  # dihedral of order 2(q-1); nilpotent iff q-1 is a 2-power
                True,
                2 * (q - 1),
            )
        )
        entries.append(
            CorpusGroup(
                f"borel-GF{q}",
                GroupSpec(F, [u2, dz1]),
                False,
                True,
                q * (q - 1),
            )
        )
        if q <= 7:
            e12 = Matrix.from_ints(F, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
            e23 = Matrix.from_ints(F, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
            p = F.characteristic()
            entries.append(
                CorpusGroup(f"heisenberg-GF{q}", GroupSpec(F, [e12, e23]), True, True, p**3 if q == p else None)
            )
    F3 = FiniteField(3)
    entries.append(
        CorpusGroup(
            "GL23",
            GroupSpec(F3, [Matrix.from_ints(F3, [[1, 1], [0, 1]]), Matrix.from_ints(F3, [[0, 1], [1, 0]])]),
            False,
            True,
            48,
        )
    )
    entries.append(
        CorpusGroup(
            "SL23",
            GroupSpec(F3, [Matrix.from_ints(F3, [[1, 1], [0, 1]]), Matrix.from_ints(F3, [[1, 0], [1, 1]])]),
            False,
            True,
            24,
        )
    )
    F2 = FiniteField(2)
    entries.append(
        CorpusGroup(
            "GL22",
            GroupSpec(F2, [Matrix.from_ints(F2, [[1, 1], [0, 1]]), Matrix.from_ints(F2, [[0, 1], [1, 0]])]),
            False,
            True,
            6,
        )
    )
    for q in (5, 7, 11):
        F = FiniteField(q)
        c3 = Matrix.from_ints(F, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        t = Matrix.from_ints(F, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        entries.append(CorpusGroup(f"S3-GF{q}", GroupSpec(F, [c3, t]), False, True, 6))
    # wreath-type maximal nilpotent groups and their reducible doublings
    for (n, p, l), order in (((2, 5, 1), 32), ((2, 13, 1), 96), ((3, 7, 1), 162), ((3, 13, 1), 324), ((2, 9, None), None), ((3, 4, None), None)):
        if l is None:
            if p == 9:
                G = gen_max_abs_irr_nilpotent(n, 3, 2)
            else:
                G = gen_max_abs_irr_nilpotent(n, 2, 2)
            name = f"max-irr-{n}-{p}"
        else:
            G = gen_max_abs_irr_nilpotent(n, p, l)
            name = f"max-irr-{n}-{p}-{l}"
        entries.append(CorpusGroup(name, G, True, True, order))
    for q in (3, 5):
        F = FiniteField(q)
        rot = Matrix.from_ints(F, [[0, -1], [1, 0]])
        refl = Matrix.from_ints(F, [[1, 0], [0, -1]])
        d8q = GroupSpec(F, [rot, refl])
        entries.append(CorpusGroup(f"D8-GF{q}", d8q, True, True, 8))
        entries.append(
            CorpusGroup(f"reducible-D8-GF{q}", gen_reducible_nilpotent(d8q), True, True, 8 * q)
        )
    F25 = FiniteField(5, 2)
    entries.append(
        CorpusGroup("scalars-GF25", GroupSpec(F25, [Matrix.diagonal(F25, (F25.multiplicative_generator(),))]), True, True, 24)
    )
    return entries


def function_field_corpus():
    """Groups over GF(p)(X).  The companion matrix of t^3 - X over GF(3)(X)
    has an inseparable characteristic polynomial, so its Jordan split
    exists only over GF(3)(Y), X = Y^3, where it is Y I times a unipotent
    matrix; the two groups holding it need that root.  Finite groups have
    characteristic polynomials over GF(p) and split over GF(p)(X) itself;
    D8 and S3 are conjugated by 1 + X e12 so that their entries hold X."""
    entries = []
    F = FunctionField(FiniteField(5))
    x, o, z, two = F.x(), F.one, F.zero, F.from_int(2)
    e12x = Matrix.make(F, [[o, x, z], [z, o, z], [z, z, o]])
    e23 = Matrix.from_ints(F, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    rot, refl = Matrix.from_ints(F, [[0, -1], [1, 0]]), Matrix.from_ints(F, [[1, 0], [0, -1]])
    swap = Matrix.from_ints(F, [[0, 1], [1, 0]])
    t2 = Matrix.make(F, [[o, x], [z, o]])
    t3 = Matrix.make(F, [[o, x, z], [z, o, z], [z, z, o]])
    c3 = Matrix.from_ints(F, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    t12 = Matrix.from_ints(F, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])

    def conj(t, gens):
        tinv = inverse(t)
        return GroupSpec(F, [t * g * tinv for g in gens])

    entries += [
        CorpusGroup("heisenberg-e12(X)-GF5(X)", GroupSpec(F, [e12x, e23]), True, True, 125),
        CorpusGroup("2u(X)-GF5(X)", GroupSpec(F, [Matrix.make(F, [[two, F.mul(two, x)], [z, two]])]), True, True, 20),
        CorpusGroup("D8-conj-GF5(X)", conj(t2, [rot, refl]), True, True, 8),
        CorpusGroup("S3-conj-GF5(X)", conj(t3, [c3, t12]), False, True, 6),
        CorpusGroup("D8x<XI>-GF5(X)", GroupSpec(F, [rot, refl, Matrix.diagonal(F, (x, x))]), True, False),
        CorpusGroup("diag(X,1)+swap-GF5(X)", GroupSpec(F, [Matrix.diagonal(F, (x, o)), swap]), False, False),
    ]
    F3 = FunctionField(FiniteField(3))
    x, o, z = F3.x(), F3.one, F3.zero
    companion = Matrix.make(F3, [[z, z, x], [o, z, z], [z, o, z]])
    entries += [
        CorpusGroup("companion(t^3-X)-GF3(X)", GroupSpec(F3, [companion]), True, False),
        CorpusGroup(
            "companion(t^3-X)+diag(2,1,1)-GF3(X)",
            GroupSpec(F3, [companion, Matrix.from_ints(F3, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])]),
            False,
            False,
        ),
    ]
    return entries


def q8_power_with_diagonal(k):
    """Block-diagonal Q8^k <= GL(2k, 3): the diagonal (i, ..., i) plus an i
    and a j in each block."""
    F = FiniteField(3)
    qi = Matrix.from_ints(F, [[0, -1], [1, 0]])
    qj = Matrix.from_ints(F, [[1, 1], [1, -1]])
    n = 2 * k

    def blocks(mats):
        rows = [[0] * n for _ in range(n)]
        for b, m in enumerate(mats):
            for r in range(2):
                for c in range(2):
                    rows[2 * b + r][2 * b + c] = m.rows[r][c]
        return Matrix.make(F, rows)

    one = Matrix.identity(F, 2)
    gens = [blocks([qi] * k)]
    for b in range(k):
        for x in (qi, qj):
            gens.append(blocks([x if c == b else one for c in range(k)]))
    return GroupSpec(F, gens)


def semidihedral(q):
    """<C, S> <= GL(2, q) for q = 3 mod 4: C is the companion matrix of a
    zeta in GF(q^2) of order 2 (q+1)_2, with minimal polynomial
    x^2 + a x + b, and S the Frobenius in the basis {1, zeta}.  It is the
    semidihedral Sylow 2-subgroup of GL(2, q) (Carter & Fong, J. Algebra 1,
    1964), of order 4 (q+1)_2 and class log2((q+1)_2) + 1."""
    E = FiniteField(q, 2)
    two = (q + 1) & -(q + 1)
    z = E.element_of_order(2 * two)
    zq = E.frobenius(z)
    a, b = E.neg(E.add(z, zq)), E.mul(z, zq)  # both lie in GF(q)
    F = FiniteField(q)
    return GroupSpec(F, [Matrix.from_ints(F, [[0, -b], [1, -a]]), Matrix.from_ints(F, [[1, -a], [0, -1]])])


def char0_groups():
    """(name, group) for the rational corpus and the char0 and cli stocks
    (seeds 1 and 101), characteristic 0 only."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import stock
    finally:
        sys.path.pop(0)
    groups = [(e.name, e.group) for e in rational_corpus()]
    for seed in (1, 101):
        for build in (stock.char0_stock, stock.cli_stock):
            groups += [(f"{e.label}@{seed}", e.group) for e in build(Random(seed))]
    return [(name, G) for name, G in groups if G.field.characteristic() == 0]


def prime_part_groups():
    """(name, group) over Q whose congruence images split the generators'
    prime parts unevenly:
      - <2, 7> (1 x 1): mod 3 the image of 7 is the identity; mod 5 it is
        the image of 2, so its part is dropped as a duplicate;
      - <diag(3, 1) + C3, swap + I2>, C3 the companion matrix of
        t^2 + t + 1: mod 5 the image is C4 wr C2 x C3, which is nilpotent,
        but the source part for 3 of the first generator fails to commute
        with the swap, so a cross-prime commutator is a kernel generator.
        The group is not nilpotent."""
    g = _m(QQ, [[3, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, -1]])
    swap = _m(QQ, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    return [
        ("<2,7>", GroupSpec(QQ, [_m(QQ, [[2]]), _m(QQ, [[7]])])),
        ("diag(3,1)+C3,swap", GroupSpec(QQ, [g, swap])),
    ]
