"""Jordan splitting and unipotency machinery.

The multiplicative decomposition g = s u (s diagonalizable, u unipotent,
commuting) is computed by the classical Newton iteration on f*, the
squarefree part of the characteristic polynomial (that of the minimal
polynomial too).  f* also decides semisimplicity.  Over Q, number fields,
GF(q) and Q(X) the parts stay over the ground field.  GF(q)(X) is not
perfect: when an irreducible factor of chi is inseparable, the p-th roots
that Yun's loop takes of its coefficients do not exist, and
squarefree_part raises ImperfectField.  Every such factor is
f_0(t^(p^e)) with f_0 separable and p^e <= n, so over GF(q)(Y) with
X = Y^(p^k) and p^k >= n it is the p^e-th power of a separable
polynomial, and the split exists there; the pipeline takes the least k
at which it does (nilpotency.is_nilpotent).

A linear f* = t - c needs no iteration: f* is the squarefree part of the
monic characteristic polynomial of degree n, so that is (t - c)^n, and
Cayley-Hamilton gives (g - c)^n = 0.  So u = c^-1 g is unipotent, s = c
commutes with it, and by uniqueness these are the parts.  Every other
unipotent part the iteration returns is checked unipotent once, in
`jordan`.  `unipotent_flag` takes matrices already known unipotent and
tests none of them again: `reduction_split` hands it the Jordan parts, and
`structure` the Sylow parts for the characteristic over GF(q), which are
unipotent because a p-element x of GL(n, p^l) has
(x - 1)^(p^e) = x^(p^e) - 1 = 0.

Element orders are computed over GF(q) only, by powering: over an
infinite field the pipeline asks orders of its finite images.  Whether an
element over GF(q)(X) has infinite order, a claim the verifier replays,
is read off its characteristic polynomial (has_infinite_order).
"""

from __future__ import annotations

import math

from .errors import CapExceeded, NotNilpotentSignal, NotUnipotent
from .fields import FiniteField, FunctionField
from .groups import GroupSpec
from .linalg import (
    Matrix,
    Subspace,
    charpoly,
    fixed_space,
    inverse,
    poly_at_matrix,
    quotient_action,
)
from .poly import squarefree_part
from .record import Frozen
from .witness import WItem, Witness

ORDER_CAP = 10**6    # power iteration budget for element orders


class JordanPair(Frozen):
    __slots__ = ("s", "u", "minpoly_s")   # minpoly_s: minimal polynomial of s, the squarefree part of g's


class UnipotentCert(Frozen):
    __slots__ = ("flag",)   # descending subspaces V = V_0 > ... > V_l = 0, (g - 1) V_i <= V_(i+1) for every generator g


class SplitResult(Frozen):
    __slots__ = ("gens_s", "gens_u", "cert_u", "minpolys_s")   # minpolys_s: of each diagonalizable part
    _defaults = {"minpolys_s": ()}


def is_unipotent_matrix(g: Matrix) -> bool:
    F = g.field
    n = g.n
    return ((g - Matrix.identity(F, n)) ** n).rows == Matrix.zero(F, n).rows


def jordan(g: Matrix) -> JordanPair:
    """Unique commuting factorization g = s u with s diagonalizable, u
    unipotent, and s's minimal polynomial f*, the squarefree part of g's
    characteristic polynomial.  g is its own s when f* has degree n or
    f*(g) = 0, which the Newton iteration's first step finds.  Over
    GF(q)(X) an inseparable factor of chi raises ImperfectField (module
    docstring)."""
    F = g.field
    n = g.n
    ident = Matrix.identity(F, n)
    fstar = squarefree_part(charpoly(g))
    if fstar.degree == n:
        return JordanPair(g, ident, fstar)
    if fstar.degree == 1:
        # chi = (t - c)^n: unipotent by Cayley-Hamilton (module docstring)
        c = F.neg(fstar.coeffs[0])
        s = Matrix.diagonal(F, [c] * n)
        if s == g:
            return JordanPair(g, ident, fstar)
        return JordanPair(s, g if F.is_one(c) else g * F.inv(c), fstar)
    x = g
    dstar = fstar.derivative()
    for _ in range(max(1, math.ceil(math.log2(n)) + 1)):
        fx = poly_at_matrix(fstar, x)
        if fx.is_zero():
            break
        x = x - fx * inverse(poly_at_matrix(dstar, x))
    if x is g:
        return JordanPair(g, ident, fstar)
    s = x
    u = inverse(s) * g
    if not (s * u == g and u * s == g and is_unipotent_matrix(u)):
        raise ArithmeticError("jordan iteration failed to converge")
    return JordanPair(s, u, fstar)


def unipotent_flag(gens) -> UnipotentCert:
    """Flag certificate for the group generated by the nonempty gens, which
    the caller knows to be unipotent, or NotUnipotent carrying the quotient
    generators with zero fixed space."""
    F = gens[0].field
    n = gens[0].n

    def recurse(cur, embed, level):
        d = len(embed)
        if d == 0 or all(g.is_identity() for g in cur):
            return []
        w = fixed_space(cur)
        if w.dim == 0:
            raise NotUnipotent(level, cur)
        qcoords = [j for j in range(d) if j not in set(w.pivots)]
        qgens = quotient_action(cur, w)
        sub = recurse(qgens, [embed[q] for q in qcoords], level + 1)
        w_orig = list(F.matmul(w.basis, tuple(zip(*embed))))
        return [vecs + w_orig for vecs in sub] + [w_orig]

    embed0 = list(Matrix.identity(F, n).rows)
    inner = recurse(list(gens), embed0, 0)
    flag = [Subspace.full(F, n)]
    flag += [Subspace.from_vectors(F, n, vecs) for vecs in inner]
    flag.append(Subspace.zero(F, n))
    return UnipotentCert(tuple(flag))


def reduction_split(G: GroupSpec) -> SplitResult:
    """Split the generators into diagonalizable and unipotent parts, certify
    the unipotent part, and check the parts commute; a failed check raises
    NotNilpotentSignal with the witness.  Every generator is split before
    anything is checked, so over GF(q)(X) an ImperfectField comes first."""
    pairs = [jordan(g) for g in G.gens]
    gens_s = tuple(p.s for p in pairs)
    gens_u = tuple(p.u for p in pairs)
    try:
        cert = unipotent_flag(gens_u)
    except NotUnipotent as nu:
        raise NotNilpotentSignal(
            Witness(
                kind="not_unipotent_fixed_point_free",
                context="u_parts",
                items=tuple(
                    WItem(f"quotient_gen_{i}", m, None, {"level": nu.level})
                    for i, m in enumerate(nu.quotient_gens)
                ),
                note=(
                    "the unipotent parts of the generators act fixed-point-freely at flag "
                    f"level {nu.level}, so they generate no unipotent group"
                ),
            )
        ) from None
    # a scalar s, with linear minimal polynomial, commutes with every u
    nonscalar = [(j, p.s) for j, p in enumerate(pairs) if p.minpoly_s.degree > 1]
    for i, u in enumerate(gens_u):
        if u.is_identity():
            continue
        for j, s in nonscalar:
            if not (u * s == s * u):
                raise NotNilpotentSignal(
                    Witness(
                        kind="non_commuting_pair",
                        context="jordan_parts",
                        items=(
                            WItem("x", u, ((i, 1),), {"part": "u", "generator": i}),
                            WItem("y", s, ((j, 1),), {"part": "s", "generator": j}),
                        ),
                        note="a unipotent part fails to commute with a diagonalizable part",
                    )
                )
    return SplitResult(gens_s, gens_u, cert, tuple(p.minpoly_s for p in pairs))


def s_part_group(G: GroupSpec, split: SplitResult) -> GroupSpec:
    """The group of the diagonalizable parts, with the same generator
    indices: G itself when every unipotent part is 1, since then each
    part is its generator and G's inverses serve as they are."""
    if all(u.is_identity() for u in split.gens_u):
        return G
    return GroupSpec(G.field, split.gens_s)


def finite_order(g: Matrix) -> int:
    """Multiplicative order of g over GF(q), by powering."""
    F = g.field
    if not isinstance(F, FiniteField):
        raise ValueError(f"element orders are computed over finite fields only, not over {F.name()}")
    ident = Matrix.identity(F, g.n)
    x = g
    for i in range(1, ORDER_CAP + 1):
        if x == ident:
            return i
        x = x * g
    raise CapExceeded(ORDER_CAP, "element order iteration")


def has_infinite_order(g: Matrix) -> bool:
    """Whether g over a char-p function field GF(q)(X) has infinite order:
    exactly when a coefficient of its characteristic polynomial is not
    constant.

    If g has finite order, its eigenvalues are roots of unity, hence
    algebraic over GF(q); GF(q) is algebraically closed in GF(q)(X), so
    the coefficients of chi(g), symmetric functions of the eigenvalues,
    lie in GF(q).  Conversely, if chi(g) has constant coefficients, then
    chi(g)(g) = 0 puts every power of g in the finite algebra GF(q)[g],
    which is spanned by 1, g, ..., g^(n-1) over GF(q); so the powers
    repeat, and g, being invertible, has finite order."""
    F = g.field
    if not (isinstance(F, FunctionField) and F.characteristic() > 0):
        raise ValueError(f"infinite order is decided over char-p function fields only, not over {F.name()}")
    return any(len(num) > 1 or len(den) > 1 for num, den in charpoly(g).coeffs)
