"""Brute-force oracle and corpus generators.

The closure/oracle side is the independent ground truth the test suite
checks the pipeline against: plain breadth-first multiplication closure
and a literal lower central series on the element set.  `closure` is kept
apart from the pipeline's enumeration engine (groups.enumerate_group) on
purpose, so the two can be compared.

The generator side builds the standard stock of nilpotent matrix groups:
wreath-type maximal absolutely irreducible subgroups for prime-power
degrees, their Kronecker products for composite degrees, and
degree-doubled reducible but not completely reducible variants.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, NonexistenceError, UnsupportedTwoCase
from .fields import FiniteField
from .groups import GroupSpec
from .linalg import Matrix, inverse, kron
from .numth import factorint


@dataclass
class Closure:
    elements: list
    overflowed: bool
    cap: int

    def __len__(self):
        return len(self.elements)


def closure(gens, cap: int) -> Closure:
    """Breadth-first product closure with exact matrix dedup."""
    if cap < 1:
        raise ValueError("cap must be positive")
    gens = [g for g in gens]
    if not gens:
        return Closure([], False, cap)
    F = gens[0].field
    ident = Matrix.identity(F, gens[0].n)
    seen = {ident}
    order = [ident]
    qi = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        for g in gens:
            w = v * g
            if w not in seen:
                if len(order) >= cap:
                    return Closure(order, True, cap)
                seen.add(w)
                order.append(w)
    return Closure(order, False, cap)


def _subgroup_closure(mats, cap):
    """Closure under products of the given elements and their inverses."""
    if not mats:
        return []
    F = mats[0].field
    gens = list(mats) + [inverse(m) for m in mats]
    c = closure(gens, cap)
    if c.overflowed:
        raise CapExceeded(cap, "oracle subgroup closure")
    return c.elements


_ORACLE_LITERAL_LIMIT = 400


def _generating_subset(candidates, cap):
    """Greedy subset of the candidates generating the same subgroup."""
    gens = []
    spanned = set()
    for m in candidates:
        if m.is_identity() or m in spanned:
            continue
        gens.append(m)
        spanned = set(_subgroup_closure(gens, cap))
    return gens


def _small_generating_set(elements):
    """Greedy generating subset of a finite group given as a closure list."""
    return _generating_subset(elements, len(elements) + 1)


def _normal_closure(elements, inv, base, cap):
    """Normal closure of `base` inside the finite group `elements`: the
    subgroup generated by all conjugates of a generating set of <base>,
    which one pass over the whole group collects exactly."""
    small = _generating_subset(sorted(base, key=lambda m: m.rows), cap)
    conj = {inv[h] * b * h for b in small for h in elements}
    conj_gens = _generating_subset(sorted(conj, key=lambda m: m.rows), cap)
    return _subgroup_closure(conj_gens, cap)


def oracle_invariants(c: Closure, cap: int = 10**5):
    """Order, nilpotency, class and center size by direct computation.

    For small closures the lower central series is taken literally: the
    next term is the subgroup generated by every commutator [g, x] with g
    in the group and x in the current term.  Larger closures use the
    normal closure of the commutators against a generating set of the
    current term, which is the same subgroup."""
    if c.overflowed:
        raise ValueError("cannot take invariants of an overflowed closure")
    elements = c.elements
    order = len(elements)
    if order == 0:
        return {"order": 0, "nilpotent": True, "class": 0, "center": 0}
    F = elements[0].field
    ident = Matrix.identity(F, elements[0].n)
    inv = {m: inverse(m) for m in elements}
    center = [z for z in elements if all(z * g == g * z for g in elements)]

    def comm(a, b):
        return inv[a] * inv[b] * a * b

    inner_cap = order + 1
    gamma = list(elements)       # gamma_(k+1) as a full element list
    if order <= _ORACLE_LITERAL_LIMIT:
        gamma_gens = list(elements)
    else:
        gamma_gens = _small_generating_set(elements)
    klass = 0
    nilpotent = None
    while True:
        if len(gamma) == 1:
            nilpotent = True
            break
        if klass > order:
            nilpotent = False
            break
        if order <= _ORACLE_LITERAL_LIMIT:
            commutators = {comm(g, x) for g in elements for x in gamma}
            new_gens = [m for m in commutators if m != ident]
            nxt = _subgroup_closure(new_gens, inner_cap) if new_gens else [ident]
        else:
            commutators = {comm(g, x) for g in elements for x in gamma_gens}
            new_gens = [m for m in commutators if m != ident]
            nxt = _normal_closure(elements, inv, new_gens, inner_cap) if new_gens else [ident]
        if len(nxt) == len(gamma):
            nilpotent = False
            break
        gamma = nxt
        gamma_gens = new_gens if new_gens else [ident]
        klass += 1
    return {
        "order": order,
        "nilpotent": nilpotent,
        "class": klass if nilpotent else None,
        "center": len(center),
    }


# ---------------------------------------------------------------------------
# corpus generators

def _wreath_generators(field: FiniteField, r: int, a: int):
    """Generators of the iterated wreath-type Sylow r-subgroup of GL(r^a, q)."""
    q = field.q
    s = 0
    m = q - 1
    while m % r == 0:
        s += 1
        m //= r
    omega = field.element_of_order(r**s)
    gens = [Matrix.diagonal(field, (omega,))]
    size = 1
    for _ in range(a):
        block = size
        size *= r
        # embed previous generators in the first block
        new_gens = []
        for g in gens:
            rows = []
            for i in range(size):
                row = []
                for j in range(size):
                    if i < block and j < block:
                        row.append(g.rows[i][j])
                    else:
                        row.append(field.one if i == j else field.zero)
                rows.append(tuple(row))
            new_gens.append(Matrix(field, tuple(rows)))
        # block r-cycle
        cyc = Matrix.zero(field, size).rows
        cyc = [list(row) for row in cyc]
        for bi in range(r):
            src = (bi + 1) % r
            for k in range(block):
                cyc[bi * block + k][src * block + k] = field.one
        new_gens.append(Matrix.make(field, cyc))
        gens = new_gens
    return gens


def gen_max_abs_irr_nilpotent(n: int, p: int, l: int = 1, seed: int = 0) -> GroupSpec:
    """Maximal absolutely irreducible nilpotent subgroup of GL(n, p^l):
    wreath-type Sylow subgroups for each prime-power part of n, Kronecker
    multiplied, together with all scalars."""
    field = FiniteField(p, l, seed=seed)
    q = field.q
    fac = factorint(n)
    for r in fac:
        if (q - 1) % r != 0:
            raise NonexistenceError(
                f"prime {r} divides the degree but not q - 1 = {q - 1}; no such subgroup exists"
            )
    if n % 2 == 0 and q % 4 == 3:
        raise UnsupportedTwoCase(
            "the wreath construction is not a Sylow 2-subgroup when q = 3 mod 4"
        )
    pieces = []
    for r, a in sorted(fac.items()):
        pieces.append(_wreath_generators(field, r, a))
    if not pieces:
        gens = []
        size = 1
    else:
        gens = pieces[0]
        size = gens[0].n if gens else 1
        for piece in pieces[1:]:
            psize = piece[0].n
            left = [kron(g, Matrix.identity(field, psize)) for g in gens]
            right = [kron(Matrix.identity(field, size), h) for h in piece]
            gens = left + right
            size *= psize
    zeta = field.multiplicative_generator()
    scalar = Matrix.diagonal(field, tuple(zeta for _ in range(n)))
    gens = gens + [scalar]
    return GroupSpec(field, gens)


def gen_reducible_nilpotent(base: GroupSpec) -> GroupSpec:
    """Degree-doubled variant: block diagonal copies of the base generators
    plus a central unipotent block, reducible but not completely reducible."""
    F = base.field
    n = base.degree
    gens = []
    for h in base.gens:
        rows = []
        for i in range(2 * n):
            row = []
            for j in range(2 * n):
                bi, bj = i % n, j % n
                if (i < n) == (j < n):
                    row.append(h.rows[bi][bj])
                else:
                    row.append(F.zero)
            rows.append(tuple(row))
        gens.append(Matrix(F, tuple(rows)))
    u_rows = []
    for i in range(2 * n):
        row = [F.zero] * (2 * n)
        row[i] = F.one
        if i < n:
            row[i + n] = F.one
        u_rows.append(tuple(row))
    gens.append(Matrix(F, tuple(u_rows)))
    return GroupSpec(F, gens)
