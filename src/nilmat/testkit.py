"""Brute-force oracle and corpus generators.

The closure/oracle side is the independent ground truth the test suite
checks the pipeline against: plain breadth-first multiplication closure,
then the upper central series of the element set over the generators
the closure was taken from.  z lies in Z_(i+1) iff [z, g] lies in Z_i for
every generator g, since Z_(i+1)/Z_i = Z(G/Z_i) and centrality in G/Z_i
needs checking on generators only; G is nilpotent iff the series reaches
G, in as many steps as its lower central series has.  Only matrix
products and equality are used.  `closure` is kept apart from the
pipeline's enumeration engine (groups.enumerate_group) on purpose, so the
two can be compared.

The generator side builds the standard stock of nilpotent matrix groups:
wreath-type maximal absolutely irreducible subgroups for prime-power
degrees, their Kronecker products for composite degrees, and
degree-doubled reducible but not completely reducible variants.
"""

from __future__ import annotations

from .errors import NonexistenceError, UnsupportedTwoCase
from .fields import FiniteField
from .groups import GroupSpec
from .linalg import Matrix, kron
from .numth import factorint
from .record import Record


class Closure(Record):
    __slots__ = ("elements", "overflowed", "cap", "gens")

    def __len__(self):
        return len(self.elements)


def closure(gens, cap: int) -> Closure:
    """Breadth-first product closure with exact matrix dedup."""
    if cap < 1:
        raise ValueError("cap must be positive")
    gens = [g for g in gens]
    if not gens:
        return Closure([], False, cap, gens)
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
                    return Closure(order, True, cap, gens)
                seen.add(w)
                order.append(w)
    return Closure(order, False, cap, gens)


def oracle_invariants(c: Closure):
    """Order, nilpotency, class and center size by direct computation.

    Takes the upper central series 1 = Z_0 <= Z_1 <= ... over the closure's
    generators.  Z_(i+1)/Z_i is the center of G/Z_i, and a coset zZ_i is
    central there iff it commutes with the image of every generator, so z
    lies in Z_(i+1) iff [z, g] = (gz)^-1 zg lies in Z_i, that is iff zg and
    gz lie in one coset of Z_i, for every generator g.  G is nilpotent iff
    the series reaches G; its class is the number of steps, which equals
    the length of the lower central series, and its center is Z_1.  A
    series that stalls below G means G is not nilpotent.  Every zg and gz
    is formed once; each step after the first labels the cosets of the
    current term with |G| more products."""
    if c.overflowed:
        raise ValueError("cannot take invariants of an overflowed closure")
    elements = c.elements
    order = len(elements)
    if order == 0:
        return {"order": 0, "nilpotent": True, "class": 0, "center": 0}
    index = {m: i for i, m in enumerate(elements)}
    gens = [g for g in dict.fromkeys(c.gens) if not g.is_identity()]
    # (zg, gz) as element indices, one pair of rows per generator
    sides = [([index[z * g] for z in elements], [index[g * z] for z in elements]) for g in gens]
    coset = list(range(order))      # the cosets of Z_0 = 1, labelled by index
    sizes = []                      # |Z_1|, |Z_2|, ...
    size = 1
    while size < order:
        term = [z for z in range(order) if all(coset[r[z]] == coset[l[z]] for r, l in sides)]
        if len(term) == size:
            break
        size = len(term)
        sizes.append(size)
        if size < order:
            # label each element by the first element of its coset xZ_i
            coset = [None] * order
            for x in range(order):
                if coset[x] is None:
                    for w in term:
                        coset[index[elements[x] * elements[w]]] = x
    nilpotent = size == order
    return {
        "order": order,
        "nilpotent": nilpotent,
        "class": len(sizes) if nilpotent else None,
        "center": sizes[0] if sizes else 1,
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
