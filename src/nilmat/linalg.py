"""Exact dense linear algebra over any Field.

Vectors are coefficient tuples, matrices act on column vectors.  Matrix
and matrix-vector products are the field's own `matmul` kernel, so this
module holds no per-field product code.  `rref`, hence `nullspace`,
`inverse` and `Subspace`, is one Gauss-Jordan loop on the field's own
operations over every field: fraction-free integer elimination over Q
showed no gain on any workload.  `charpoly` is Berkowitz's division-free
recurrence, on integer or polynomial numerators over Q and function fields
(on Fractions, the `char0` operations over Q ran a tenth slower) and on
the field's own operations elsewhere; the semisimplicity test and the
minimal polynomial of a semisimple matrix (`semisimple_minpoly`) come from
its squarefree part, so no Krylov sequence is reduced.
"""

from __future__ import annotations

import math
import operator
from functools import partial, reduce
from fractions import Fraction

from .errors import Singular
from .fields import Field, FunctionField, RationalField, pt_add, pt_mul, pt_neg
from .poly import Poly, squarefree_part
from .record import Frozen


class Matrix(Frozen):
    __slots__ = ("field", "rows")

    def __init__(self, field: Field, rows: tuple):
        set_field, set_rows = self._setters
        set_field(self, field)
        set_rows(self, rows)

    def __eq__(self, other):
        return (self.field, self.rows) == (other.field, other.rows) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.field, self.rows))

    @property
    def n_rows(self):
        return len(self.rows)

    @property
    def n_cols(self):
        return len(self.rows[0]) if self.rows else 0

    @property
    def n(self):
        return self.n_rows

    def is_square(self):
        return self.n_rows == self.n_cols

    @staticmethod
    def make(field, rows):
        return Matrix(field, tuple(tuple(r) for r in rows))

    @staticmethod
    def identity(field, n):
        z, o = field.zero, field.one
        return Matrix(field, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(field, n, m=None):
        m = n if m is None else m
        z = field.zero
        return Matrix(field, tuple(tuple(z for _ in range(m)) for _ in range(n)))

    @staticmethod
    def from_ints(field, rows):
        return Matrix.make(field, [[field.from_int(c) for c in r] for r in rows])

    @staticmethod
    def diagonal(field, entries):
        n = len(entries)
        z = field.zero
        return Matrix(field, tuple(tuple(entries[i] if i == j else z for j in range(n)) for i in range(n)))

    def is_identity(self):
        F = self.field
        for i, row in enumerate(self.rows):
            for j, c in enumerate(row):
                if i == j:
                    if not F.is_one(c):
                        return False
                elif not F.is_zero(c):
                    return False
        return True

    def is_zero(self):
        F = self.field
        return all(F.is_zero(c) for row in self.rows for c in row)

    def __add__(self, other):
        F = self.field
        return Matrix(
            F,
            tuple(
                tuple(F.add(a, b) for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            ),
        )

    def __sub__(self, other):
        F = self.field
        return Matrix(
            F,
            tuple(
                tuple(F.sub(a, b) for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            ),
        )

    def __mul__(self, other):
        F = self.field
        if not isinstance(other, Matrix):
            return Matrix(F, tuple(tuple(F.mul(c, other) for c in r) for r in self.rows))
        return Matrix(F, F.matmul(self.rows, tuple(zip(*other.rows))))

    def __pow__(self, e):
        if e < 0:
            return inverse(self) ** (-e)
        out, base = None, self
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:
                base = base * base
        return Matrix.identity(self.field, self.n) if out is None else out

    def __repr__(self):
        return f"Matrix({self.field.name()}, {[list(r) for r in self.rows]})"


# ---------------------------------------------------------------------------
# echelon forms

def rref(field, rows):
    """Reduced row echelon form; returns (rows as tuples, pivot columns)."""
    work = [list(r) for r in rows]
    m = len(work)
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, m):
            if not field.is_zero(work[i][c]):
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = field.inv(work[r][c])
        work[r] = [field.mul(inv, x) for x in work[r]]
        for i in range(m):
            if i != r and not field.is_zero(work[i][c]):
                f = work[i][c]
                work[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    out = [tuple(work[i]) for i in range(r)]
    return out, pivots


def nullspace(field, rows, ncols):
    """Basis vectors v (length ncols) with M v = 0, from the RREF of M."""
    red, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    out = []
    for j in free:
        v = [field.zero] * ncols
        v[j] = field.one
        for row, p in zip(red, pivots):
            v[p] = field.neg(row[j])
        out.append(tuple(v))
    return out


class Subspace(Frozen):
    __slots__ = ("field", "ambient", "basis", "pivots")  # basis: RREF rows

    @staticmethod
    def from_vectors(field, ambient, vectors):
        red, pivots = rref(field, list(vectors)) if vectors else ([], [])
        return Subspace(field, ambient, tuple(red), tuple(pivots))

    @staticmethod
    def full(field, ambient):
        # the identity rows are their own RREF
        return Subspace(field, ambient, Matrix.identity(field, ambient).rows, tuple(range(ambient)))

    @staticmethod
    def zero(field, ambient):
        return Subspace(field, ambient, (), ())

    @property
    def dim(self):
        return len(self.basis)

    def reduce_vec(self, v):
        F = self.field
        v = list(v)
        for row, p in zip(self.basis, self.pivots):
            c = v[p]
            if not F.is_zero(c):
                for j in range(self.ambient):
                    v[j] = F.sub(v[j], F.mul(c, row[j]))
        return tuple(v)


def fixed_space(gens) -> Subspace:
    """Common fixed vectors of the generators: the kernel of the stacked g - 1."""
    if not gens:
        raise ValueError("no generators")
    F = gens[0].field
    n = gens[0].n
    stacked = []
    ident = Matrix.identity(F, n)
    for g in gens:
        stacked.extend(list(r) for r in (g - ident).rows)
    vecs = nullspace(F, stacked, n)
    return Subspace.from_vectors(F, n, vecs)


def quotient_action(gens, w: Subspace):
    """Induced matrices on V/w in the non-pivot standard coordinates; w
    must be invariant under gens (unipotent_flag passes their fixed
    space), which is not checked."""
    if not gens:
        return []
    F = gens[0].field
    n = gens[0].n
    if w.dim == 0:
        return list(gens)
    qcoords = [j for j in range(n) if j not in set(w.pivots)]
    out = []
    for g in gens:
        cols = []
        for j in qcoords:
            img = w.reduce_vec(tuple(row[j] for row in g.rows))
            cols.append([img[q] for q in qcoords])
        rows = tuple(tuple(cols[j][i] for j in range(len(qcoords))) for i in range(len(qcoords)))
        out.append(Matrix(F, rows))
    return out


def inverse(a: Matrix) -> Matrix:
    if not a.is_square():
        raise Singular("only square matrices invert")
    F = a.field
    n = a.n
    aug = [list(a.rows[i]) + [F.one if i == j else F.zero for j in range(n)] for i in range(n)]
    red, pivots = rref(F, aug)
    if len(pivots) < n or list(pivots[:n]) != list(range(n)):
        raise Singular("matrix is singular")
    return Matrix(F, tuple(tuple(row[n:]) for row in red))


def charpoly(a: Matrix) -> Poly:
    """det(t - a), monic of degree n, by Berkowitz's division-free
    recurrence (Inf. Proc. Letters 18, 1984).

    Over Q and function fields it runs on the numerators d*a over the
    least common denominator d, integers or polynomials: coefficient k of
    det(t - d*a) is d^(n-k) times that of det(t - a).  Other fields run it
    on their own add/mul/neg."""
    F = a.field
    n = a.n
    entries = [c for row in a.rows for c in row]
    if isinstance(F, RationalField):
        d = math.lcm(*(c.denominator for c in entries))
        nums = [c.numerator * (d // c.denominator) for c in entries]
        one, add, mul, neg, div = 1, operator.add, operator.mul, operator.neg, Fraction
    elif isinstance(F, FunctionField):
        B = F.base
        nums, d = F.over_common_denominator(entries)
        one, div = (B.one,), F.make
        add, mul, neg = partial(pt_add, B), partial(pt_mul, B), partial(pt_neg, B)
    else:
        return Poly(F, tuple(reversed(_berkowitz(a.rows, F.one, F.add, F.mul, F.neg))))
    top = _berkowitz([nums[i * n : (i + 1) * n] for i in range(n)], one, add, mul, neg)
    out, dj = [], one
    for c in top:
        out.append(div(c, dj))
        dj = mul(dj, d)
    return Poly(F, tuple(reversed(out)))


def _berkowitz(rows, one, add, mul, neg):
    """Coefficients of det(t - A), highest first, for a square A of size
    n >= 1 over a commutative ring.

    With A_r the leading r x r block, C the column above and R the row
    left of entry (r, r), det(t - A_(r+1)) is det(t - A_r) times
    t - a_rr - sum_k (R A_r^k C) t^-(k+1), of which only the polynomial part
    survives, so k < r suffices."""

    def dot(x, y):
        return reduce(add, map(mul, x, y))

    p = [one, neg(rows[0][0])]
    for r in range(1, len(rows)):
        block = [row[:r] for row in rows[:r]]
        col, left = [row[r] for row in rows[:r]], rows[r][:r]
        w = [one, neg(rows[r][r])]
        for k in range(r):
            if k:
                col = [dot(row, col) for row in block]
            w.append(neg(dot(left, col)))
        p = [
            reduce(add, (mul(w[j], p[i - j]) for j in range(max(0, i - r), i + 1)))
            for i in range(r + 2)
        ]
    return p


def poly_at_matrix(f: Poly, a: Matrix) -> Matrix:
    """f(a) by Horner's rule, each coefficient added on the diagonal."""
    F = a.field
    out = Matrix.zero(F, a.n)
    for k, c in enumerate(reversed(f.coeffs)):
        if k:
            out = out * a
        out = Matrix(
            F,
            tuple(
                tuple(F.add(x, c) if i == j else x for j, x in enumerate(row))
                for i, row in enumerate(out.rows)
            ),
        )
    return out


def semisimple_minpoly(a: Matrix):
    """a's minimal polynomial when a is semisimple, else None; exact over
    perfect fields.

    f*, the squarefree part of the characteristic polynomial, divides the
    minimal polynomial and has the same roots, so a is semisimple exactly
    when f*(a) = 0, and then f* is its minimal polynomial; deg f* = n makes
    that evident with no matrix product."""
    fstar = squarefree_part(charpoly(a))
    if fstar.degree == a.n or poly_at_matrix(fstar, a).is_zero():
        return fstar
    return None


def kron(a: Matrix, b: Matrix) -> Matrix:
    F = a.field
    out = []
    for i in range(a.n_rows):
        for k in range(b.n_rows):
            row = []
            for j in range(a.n_cols):
                aij = a.rows[i][j]
                row.extend(F.mul(aij, b.rows[k][l]) for l in range(b.n_cols))
            out.append(tuple(row))
    return Matrix(F, tuple(out))
