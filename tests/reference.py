"""Reference implementations the package's faster paths are checked against.

The Fraction kernels for Q[x] and number fields are the plain loops that
the integer kernels of nilmat.fields replace; like `schoolbook` for
`Field.matmul`, they define the values the kernels must return, value for
value and repr for repr.  Polynomials are ascending coefficient tuples with
a nonzero last entry.

`minimal_polynomial` is the Krylov minimal polynomial over any Field, and
`jordan` and `finite_order` are the Jordan split and element order built
on it and on Yun's squarefree part: the references for the
characteristic-polynomial route of nilmat.linalg and nilmat.splitting.
`Span` is the incremental row reduction they read Krylov annihilators
off, and `spin_dim` the enveloping-algebra dimension the corpus tests
read irreducibility off.

`enumeration` is the Cayley enumeration engine's contract as a plain
breadth-first search keyed by whole matrices, and `congruence_kernel` the
whole-image lifted kernel built on it: the references for the engine and
for the per-prime kernel of the verdict path.
"""

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction

from nilmat.errors import CapExceeded
from nilmat.fields import FiniteField, FunctionField, NumberField
from nilmat.groups import Elt, word_inverse, word_mul
from nilmat.linalg import Matrix, inverse
from nilmat.poly import Poly, cyclotomic_finite_order, gcd, squarefree_decomposition


def trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return trim(x - y for x, y in zip(a, b))


def poly_divmod(a, b):
    """Long division, one Fraction quotient coefficient per step."""
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] -= c * y
        a = list(trim(a))
    return trim(q), trim(a)


def monic(a):
    return tuple(c / a[-1] for c in a) if a else ()


def poly_gcd(a, b):
    """Monic Euclid over Q."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return monic(a)


def derivative(a):
    return trim(c * i for i, c in enumerate(a) if i)


def squarefree_part(a):
    """f / gcd(f, f'), monic: the squarefree part in characteristic 0."""
    return monic(poly_divmod(a, poly_gcd(a, derivative(a)))[0])


def nf_mul(K, a, b):
    """Schoolbook product in the power basis, folded by K's reductions of
    a^m .. a^(2m-2)."""
    m = K.degree
    prod = [Fraction(0)] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    out = prod[:m]
    for k in range(m, 2 * m - 1):
        out = [x + prod[k] * r for x, r in zip(out, K._apow[k - m])]
    return tuple(out)


def nf_inv(K, a):
    """Extended Euclid of a's polynomial against the minimal polynomial."""
    r0, r1 = tuple(Fraction(c) for c in K.minpoly), trim(a)
    s0, s1 = (), (Fraction(1),)
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
    inv = [c / r0[-1] for c in s0]
    return tuple(inv + [Fraction(0)] * (K.degree - len(inv)))


class Span:
    """Incremental row span with reduction coefficients over inserted rows."""

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.rows = []  # (vector, pivot, coeffs over inserted originals)
        self.count = 0

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        """(residual, coeffs) with vec = residual + sum coeffs_i * original_i."""
        F = self.field
        v = list(vec)
        coeffs = [F.zero] * self.count
        for row, p, rc in self.rows:
            c = v[p]
            if F.is_zero(c):
                continue
            for j in range(self.ncols):
                v[j] = F.sub(v[j], F.mul(c, row[j]))
            for j, x in enumerate(rc):
                coeffs[j] = F.add(coeffs[j], F.mul(c, x))
        return tuple(v), coeffs

    def insert(self, vec):
        """Add vec if independent; returns True when the span grew."""
        F = self.field
        residual, coeffs = self.reduce(vec)
        pivot = None
        for j, c in enumerate(residual):
            if not F.is_zero(c):
                pivot = j
                break
        self.count += 1
        for row in self.rows:
            row[2].append(F.zero)
        if pivot is None:
            self.count -= 1
            for row in self.rows:
                row[2].pop()
            return False
        inv = F.inv(residual[pivot])
        norm = tuple(F.mul(inv, c) for c in residual)
        rc = [F.neg(F.mul(inv, c)) for c in coeffs] + [inv]
        rc = rc[: self.count]
        rc += [F.zero] * (self.count - len(rc))
        self.rows.append([norm, pivot, rc])
        return True

    def coords(self, vec):
        """Coefficients over the inserted independent rows, or None."""
        F = self.field
        residual, coeffs = self.reduce(vec)
        if any(not F.is_zero(c) for c in residual):
            return None
        return coeffs


def spin_dim(gens) -> int:
    """Dimension of the enveloping algebra of gens: the breadth-first
    closure of {1} under right multiplication by the generators, keeping
    the matrices independent of the span so far.  An absolutely
    irreducible group of degree n has dimension n^2 (Burnside)."""
    F, n = gens[0].field, gens[0].n
    span = Span(F, n * n)
    queue = [Matrix.identity(F, n)]
    for mat in queue:
        if span.insert(tuple(c for row in mat.rows for c in row)):
            queue.extend(mat * g for g in gens)
    return span.dim


def minimal_polynomial(a: Matrix) -> Poly:
    """Least monic annihilator: the lcm over the standard basis vectors of
    their Krylov annihilators, each read off a `Span` of a, a v, a^2 v, ..."""
    F = a.field
    n = a.n
    overall = Poly.one_(F)
    for j in range(n):
        if overall.degree == n:
            break
        span = Span(F, n)
        cur = tuple(F.one if i == j else F.zero for i in range(n))
        while span.insert(cur):
            cur = a.apply(cur)
        coeffs = span.coords(cur)
        ann = Poly.make(F, [F.neg(c) for c in coeffs] + [F.one])
        overall = (overall * ann) // gcd(overall, ann)
    return overall.monic()


def yun_squarefree_part(f: Poly) -> Poly:
    """Monic product of the factors of Yun's squarefree decomposition."""
    out = Poly.one_(f.field)
    for g, _ in squarefree_decomposition(f)[1]:
        out = out * g
    return out.monic()


def poly_at_matrix(f: Poly, a: Matrix) -> Matrix:
    """Horner's rule with a scaled identity per coefficient."""
    ident = Matrix.identity(a.field, a.n)
    out = Matrix.zero(a.field, a.n)
    for c in reversed(f.coeffs):
        out = out * a + ident * c
    return out


def jordan(g: Matrix):
    """(s, u, minimal polynomial of s): Newton's iteration on the squarefree
    part f* of the Krylov minimal polynomial f, skipped when f = f*."""
    F, n = g.field, g.n
    ident = Matrix.identity(F, n)
    f = minimal_polynomial(g)
    fstar = yun_squarefree_part(f)
    if fstar.degree == f.degree:
        return g, ident, fstar
    x = g
    for _ in range(max(1, math.ceil(math.log2(n)) + 1)):
        fx = poly_at_matrix(fstar, x)
        if fx == Matrix.zero(F, n):
            break
        x = x - fx * inverse(poly_at_matrix(fstar.derivative(), x))
    return x, inverse(x) * g, fstar


def finite_order(g: Matrix):
    """Multiplicative order of g, or None when infinite: over finite fields
    by powering, in characteristic 0 from the cyclotomic factors of the
    Krylov minimal polynomial, which must be squarefree (and, over Q(X),
    have constant coefficients)."""
    F, n = g.field, g.n
    if isinstance(F, FiniteField):
        x, k = g, 1
        while not x.is_identity():
            x, k = x * g, k + 1
        return k
    f = minimal_polynomial(g)
    if yun_squarefree_part(f) != f:
        return None
    degree = n * F.degree if isinstance(F, NumberField) else n
    if isinstance(F, FunctionField):
        if any(len(num) > 1 or den != (F.base.one,) for num, den in f.coeffs):
            return None
        f = Poly.make(F.base, [num[0] if num else F.base.zero for num, _ in f.coeffs])
    return cyclotomic_finite_order(f, degree)


@dataclass
class ReferenceEnumeration:
    """What the reference enumeration records, each list built eagerly."""

    vertices: list
    words: list
    overflowed: bool
    schreier: list
    parents: array
    table: array
    ngens: int

    def __len__(self):
        return len(self.vertices)


def enumeration(gens, cap, lift=None):
    """The engine's contract as a plain breadth-first search keyed by whole
    matrices: one full product per edge, and with a lift one source
    product per edge, a Schreier generator being recorded when it is not
    the identity."""
    ident = Matrix.identity(gens[0].field, gens[0].n)
    index = {ident: 0}
    vertices = [ident]
    words = [()]
    schreier = []
    k = len(gens)
    parents = array("i", [-1])
    table = array("i")
    if lift is not None:
        lift_mats = [s.mat for s in lift]
        lift_invs = [inverse(m) for m in lift_mats]
        source_ident = Matrix.identity(lift_mats[0].field, lift_mats[0].n)
        tmats, twords, tinvs = [source_ident], [()], [source_ident]
    qi = 0
    while qi < len(vertices):
        v = vertices[qi]
        for i, g in enumerate(gens):
            w = v * g
            j = index.get(w)
            if j is None:
                if len(vertices) >= cap:
                    del table[qi * k :]
                    return ReferenceEnumeration(vertices, words, True, schreier, parents, table, k)
                j = index[w] = len(vertices)
                vertices.append(w)
                words.append(words[qi] + ((i, 1),))
                parents.append(qi)
                if lift is not None:
                    tmats.append(tmats[qi] * lift_mats[i])
                    twords.append(word_mul(twords[qi], lift[i].word))
                    tinvs.append(lift_invs[i] * tinvs[qi])
            elif lift is not None:
                prod = tmats[qi] * lift_mats[i]
                if not (prod == tmats[j]):
                    word = word_mul(twords[qi], lift[i].word, word_inverse(twords[j]))
                    schreier.append(Elt(prod * tinvs[j], word))
            table.append(j)
        qi += 1
    return ReferenceEnumeration(vertices, words, False, schreier, parents, table, k)


def congruence_kernel(G, image_gens, cap):
    """(image order, normal generators of the kernel of G.gens[i] ->
    image_gens[i]): the Schreier generators of the whole image's Cayley
    graph lifted to G, by Schreier's lemma."""
    enum = enumeration(list(image_gens), cap, lift=G.elts())
    if enum.overflowed:
        raise CapExceeded(cap, "Cayley closure")
    return len(enum), enum.schreier
