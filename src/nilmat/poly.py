"""Univariate polynomials over a Field, with factorization.

Factorization is provided over Q and over finite fields, which is all the
pipeline needs; requesting it over a number field or function field raises
UnsupportedField.  Over finite fields the classical squarefree / distinct
degree / equal degree chain is used, with the random splitting seeded from
the polynomial itself so runs are reproducible.  Over Q: reduction mod an
auxiliary good prime, Hensel lifting to a Mignotte-style bound, then naive
subset recombination, which is fine at the degrees this package meets.

Arithmetic goes through the coefficient-tuple helpers of `fields`, so over
Q products, division with remainder and gcd (hence the squarefree part and
decomposition) run on integers: convolution, pseudo-division and the
primitive remainder sequence.  In characteristic 0 the squarefree part
is the single quotient f // gcd(f, f'); Yun's loop runs only for the full
decomposition and in characteristic p.
"""

from __future__ import annotations

import math
import random

from . import fields
from .errors import ImperfectField, UnsupportedField
from .fields import QQ, FiniteField, Field, pt_trim
from .record import Frozen


class Poly(Frozen):
    __slots__ = ("field", "coeffs")  # coeffs ascending, highest index nonzero; () is the zero polynomial

    def __init__(self, field: Field, coeffs: tuple):
        set_field, set_coeffs = self._setters
        set_field(self, field)
        set_coeffs(self, coeffs)

    def __eq__(self, other):
        return (self.field, self.coeffs) == (other.field, other.coeffs) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.field, self.coeffs))

    @staticmethod
    def make(field, coeffs):
        return Poly(field, pt_trim(field, tuple(coeffs)))

    @staticmethod
    def from_ints(field, ints):
        return Poly.make(field, [field.from_int(int(c)) for c in ints])

    @staticmethod
    def zero(field):
        return Poly(field, ())

    @staticmethod
    def one_(field):
        return Poly(field, (field.one,))

    @staticmethod
    def x(field):
        return Poly(field, (field.zero, field.one))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return len(self.coeffs) == 1 and self.field.is_one(self.coeffs[0])

    def lc(self):
        return self.coeffs[-1]

    def __add__(self, other):
        return Poly(self.field, fields.pt_add(self.field, self.coeffs, other.coeffs))

    def __sub__(self, other):
        return Poly(self.field, fields.pt_sub(self.field, self.coeffs, other.coeffs))

    def __mul__(self, other):
        if isinstance(other, Poly):
            return Poly(self.field, fields.pt_mul(self.field, self.coeffs, other.coeffs))
        return self.scale(other)

    def scale(self, c):
        return Poly(self.field, fields.pt_scale(self.field, self.coeffs, c))

    def __divmod__(self, other):
        q, r = fields.pt_divmod(self.field, self.coeffs, other.coeffs)
        return Poly(self.field, q), Poly(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero() or self.field.is_one(self.lc()):
            return self
        return self.scale(self.field.inv(self.lc()))

    def derivative(self):
        F = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(F.mul(self.coeffs[i], F.from_int(i)))
        return Poly.make(F, out)

    def pow_mod(self, e, m):
        F = self.field
        out = Poly.one_(F) % m
        base = self % m
        while e:
            if e & 1:
                out = (out * base) % m
            base = (base * base) % m
            e >>= 1
        return out

    def __repr__(self):
        return f"Poly({self.field.name()}, {list(self.coeffs)})"


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd (zero when both are): fields.pt_gcd, so over Q the integer
    remainder sequence."""
    return Poly(a.field, fields.pt_gcd(a.field, a.coeffs, b.coeffs))


def ext_gcd(a: Poly, b: Poly):
    """(g, s, t) with g = s*a + t*b, g monic (or zero)."""
    F = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one_(F), Poly.zero(F)
    t0, t1 = Poly.zero(F), Poly.one_(F)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    c = F.inv(r0.lc())
    return r0.scale(c), s0.scale(c), t0.scale(c)


def _pth_root(f: Poly) -> Poly:
    """Inverse of the Frobenius on polynomials with zero derivative, char p.

    Over GF(q) each kept coefficient has a p-th root in the field.  Over
    GF(q)(X) the p-th root of a(X^p) / b(X^p), a fraction in lowest terms,
    is a'(X) / b'(X), where a' and b' take the p-th roots of the kept
    coefficients; a coefficient outside GF(q)(X^p) has no p-th root, so f
    has an inseparable factor and ImperfectField is raised."""
    F = f.field
    p = F.characteristic()
    base = F.base if isinstance(F, fields.FunctionField) else F

    def root(c):
        return base.pow(c, base.q // p) if base.l > 1 else c  # c^(p^(l-1)) is the p-th root

    def root_poly(cs):
        if any(not base.is_zero(c) for i, c in enumerate(cs) if i % p):
            raise ImperfectField("a coefficient has no p-th root in GF(q)(X)")
        return tuple(root(c) for c in cs[::p])

    if base is F:
        return Poly.make(F, [root(c) for c in f.coeffs[::p]])
    return Poly.make(F, [F.make(root_poly(num), root_poly(den)) for num, den in f.coeffs[::p]])


def squarefree_decomposition(f: Poly):
    """[(g_i, e_i)] with f = lc * prod g_i^e_i, g_i monic squarefree coprime."""
    F = f.field
    if f.is_zero():
        raise ValueError("zero polynomial")
    lead = f.lc()
    f = f.monic()
    p = F.characteristic()
    if f.degree == 0:
        return lead, []
    out = []
    if p == 0:
        # Yun
        d = f.derivative()
        a = gcd(f, d)
        b = f // a
        c = d // a
        i = 1
        while b.degree > 0:
            t = c - b.derivative()
            g = gcd(b, t)
            if g.degree > 0:
                out.append((g, i))
            b = b // g
            c = t // g
            i += 1
        return lead, out
    # characteristic p
    d = f.derivative()
    if d.is_zero():
        lead2, sub = squarefree_decomposition(_pth_root(f))
        return lead, [(g, e * p) for g, e in sub]
    a = gcd(f, d)
    w = f // a  # product of factors with multiplicity not divisible by p
    i = 1
    while w.degree > 0:
        y = gcd(w, a)
        z = w // y
        if z.degree > 0:
            out.append((z, i))
        w = y
        a = a // y
        i += 1
    if a.degree > 0:
        _, sub = squarefree_decomposition(_pth_root(a))
        out.extend((g, e * p) for g, e in sub)
    return lead, out


def squarefree_part(f: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of f: f // gcd(f, f')
    in characteristic 0, Yun's decomposition in characteristic p."""
    if f.field.characteristic() == 0:
        return (f // gcd(f, f.derivative())).monic()
    _, dec = squarefree_decomposition(f)
    out = Poly.one_(f.field)
    for g, _ in dec:
        out = out * g
    return out.monic()


def _stable_rng(tag, *data):
    # imported on first use: hashlib loads OpenSSL, which no cold start should pay for
    import hashlib

    h = hashlib.sha256(repr((tag,) + data).encode()).hexdigest()
    return random.Random(int(h, 16))


def _ddf(f: Poly, q: int):
    """Distinct-degree split of a monic squarefree f over GF(q): [(product, d)]."""
    F = f.field
    out = []
    h = Poly.x(F)
    x = Poly.x(F)
    d = 0
    while f.degree > 0:
        d += 1
        if 2 * d > f.degree:
            out.append((f, f.degree))
            break
        h = h.pow_mod(q, f)
        g = gcd(h - x, f)
        if g.degree > 0:
            out.append((g, d))
            f = f // g
            h = h % f
    return out


def _edf(f: Poly, d: int, q: int):
    """Equal-degree factorization: f monic squarefree, all factors of degree d."""
    F = f.field
    n = f.degree
    if n == d:
        return [f]
    rng = _stable_rng("edf", F.descriptor(), f.coeffs, d)
    p = F.characteristic()
    while True:
        h = Poly.make(F, [F.random_element(rng) for _ in range(n)])
        if h.degree < 1:
            continue
        g = gcd(h, f)
        if 0 < g.degree < n:
            pass
        elif p == 2:
            # trace map over GF(2^l)
            l = F.l if isinstance(F, FiniteField) else 1
            t = Poly.zero(F)
            acc = h % f
            for _ in range(d * l):
                t = (t + acc) % f
                acc = acc.pow_mod(2, f)
            g = gcd(t, f)
        else:
            e = (q**d - 1) // 2
            g = gcd(h.pow_mod(e, f) - Poly.one_(F), f)
        if 0 < g.degree < n:
            return _edf(g, d, q) + _edf(f // g, d, q)


def _factor_finite(f: Poly):
    F = f.field
    q = F.q
    lead, dec = squarefree_decomposition(f)
    out = []
    for g, e in dec:
        for part, d in _ddf(g, q):
            for irr in _edf(part, d, q):
                out.append((irr, e))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return lead, out


# --- factorization over Q -------------------------------------------------

def _to_int_primitive(f: Poly):
    """(content, integer coefficient list), f = content * primitive, the
    primitive part with a positive leading coefficient."""
    ints = fields.primitive_ints(f.coeffs)
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return f.lc() / ints[-1], ints


def _sym(a, m):
    a %= m
    return a - m if a > m // 2 else a


def _hensel_lift(g_ints, facs_modp, p, k):
    """Lift monic factors of (g/lc mod p) to a monic factorization mod p^k.

    g_ints: integer coefficients; facs_modp: at least two monic
    int-coefficient factor lists over GF(p) whose product is g/lc mod p.
    Returns monic integer factor lists mod p^k whose product is g/lc mod
    p^k.
    """
    Fp = fields.field_from_json({"kind": "GF", "p": p})

    def pmul(a, b, m):
        out = [c % m for c in fields.int_convolution(a, b)]
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return out

    def prem(a, b, m):
        # quotient and remainder of a by monic b, coefficients mod m
        a = [x % m for x in a]
        q = [0] * max(1, len(a) - len(b) + 1)
        while len(a) >= len(b):
            c = a[-1] % m
            kk = len(a) - len(b)
            q[kk] = c
            for i, y in enumerate(b):
                a[kk + i] = (a[kk + i] - c * y) % m
            while len(a) > 1 and a[-1] % m == 0:
                a.pop()
            if len(a) == 1 and a[0] % m == 0:
                break
        return q, [x % m for x in a]

    r = len(facs_modp)
    # bezout basis over GF(p): sigma_i with sum sigma_i * prod_{j != i} f_j = 1
    polys = [Poly.from_ints(Fp, f) for f in facs_modp]
    sigmas = []
    for i in range(r):
        rest = Poly.one_(Fp)
        for j in range(r):
            if j != i:
                rest = rest * polys[j]
        g_, s_, t_ = ext_gcd(polys[i], rest)
        if not g_.is_one():
            raise ArithmeticError("factors not coprime mod p")
        sigmas.append(t_)  # t_ * rest = 1 mod polys[i]
    sig_ints = [[int(c) for c in s.coeffs] or [0] for s in sigmas]
    lifted = [list(f) for f in facs_modp]
    modulus = p
    m_target = p**k
    lc = g_ints[-1]
    while modulus < m_target:
        new_mod = modulus * p
        inv_lc = pow(lc, -1, new_mod)
        target = [c * inv_lc % new_mod for c in g_ints]
        prod = [1]
        for f in lifted:
            prod = pmul(prod, f, new_mod)
        err = [(a - b) % new_mod for a, b in zip(target + [0] * len(prod), prod + [0] * len(target))]
        err = err[: max(len(target), len(prod))]
        e_div = [(c // modulus) % p for c in err]
        while len(e_div) > 1 and e_div[-1] == 0:
            e_div.pop()
        for i in range(r):
            # delta_i = (e * sigma_i) mod f_i over GF(p)
            es = pmul(e_div, sig_ints[i], p)
            _, delta = prem(es, [c % p for c in lifted[i]], p)
            lifted[i] = [
                (lifted[i][j] + modulus * (delta[j] if j < len(delta) else 0)) % new_mod
                for j in range(len(lifted[i]))
            ]
        modulus = new_mod
    return [[c % m_target for c in f] for f in lifted]


def is_irreducible(f: Poly) -> bool:
    """Irreducibility over Q or GF(q).  Over GF(q) a monic f is irreducible
    exactly when it is squarefree and its distinct-degree split is f alone,
    in degree deg f; over Q f is factored."""
    if f.degree < 1:
        return False
    if isinstance(f.field, FiniteField):
        f = f.monic()
        return gcd(f, f.derivative()).is_one() and _ddf(f, f.field.q) == [(f, f.degree)]
    _, facs = factor(f)
    return len(facs) == 1 and facs[0][1] == 1 and facs[0][0].degree == f.degree


def _factor_rational_squarefree(ints):
    """Factor a primitive squarefree integer polynomial; returns primitive
    integer coefficient lists of the irreducible factors."""
    n = len(ints) - 1
    if n <= 1:
        return [ints]
    lc = ints[-1]
    # choose a prime keeping the reduction squarefree; a prime not dividing
    # lc keeps its full degree
    from .numth import odd_primes

    for p in odd_primes(3):
        if lc % p == 0:
            continue
        fbar = Poly.from_ints(fields.field_from_json({"kind": "GF", "p": p}), ints)
        if gcd(fbar, fbar.derivative()).degree == 0:
            break
    fbar = fbar.monic()
    _, facs = _factor_finite(fbar)
    fac_ints = [[int(c) for c in g.coeffs] for g, _ in facs]
    if len(fac_ints) == 1:
        return [ints]
    # lift to p^k beyond twice the Mignotte bound
    height = max(abs(c) for c in ints)
    bound = int(math.isqrt(n + 1) + 1) * (1 << n) * height * abs(lc)
    k = 1
    while p**k <= 2 * bound:
        k += 1
    lifted = _hensel_lift(ints, fac_ints, p, k)
    mod = p**k
    # subset recombination
    remaining = list(range(len(lifted)))
    current = list(ints)
    out = []

    def try_subset(idxs):
        nonlocal current, remaining
        prod = [1]
        for i in idxs:
            prod = [c % mod for c in fields.int_convolution(prod, lifted[i])]
        lc_cur = current[-1]
        cand = [_sym(lc_cur * c % mod, mod) for c in prod]
        g = math.gcd(*[abs(c) for c in cand if c] or [1])
        cand = [c // g for c in cand]
        if cand[-1] < 0:
            cand = [-c for c in cand]
        fq = Poly.from_ints(QQ, current)
        gq = Poly.from_ints(QQ, cand)
        q, r = divmod(fq, gq)
        if not r.is_zero():
            return False
        out.append(cand)
        _, current_new = _to_int_primitive(q)
        current = current_new
        remaining = [i for i in remaining if i not in idxs]
        return True

    size = 1
    while 2 * size <= len(remaining):
        changed = True
        while changed and 2 * size <= len(remaining):
            changed = False
            from itertools import combinations

            for idxs in combinations(remaining, size):
                if try_subset(list(idxs)):
                    changed = True
                    break
        size += 1
    if len(current) > 1:
        out.append(current)
    out.sort(key=lambda c: (len(c), c))
    return out


def _factor_rational(f: Poly):
    lead_total = QQ.one
    content, ints = _to_int_primitive(f)
    lead_total = lead_total * content
    fq = Poly.from_ints(QQ, ints)
    lead2, dec = squarefree_decomposition(fq)
    lead_total = lead_total * lead2
    out = []
    for g, e in dec:
        g_content, g_ints = _to_int_primitive(g)
        lead_total = lead_total * QQ.pow(g_content, e)
        for fac in _factor_rational_squarefree(g_ints):
            gp = Poly.from_ints(QQ, fac)
            lead_total = lead_total * QQ.pow(gp.lc(), e)
            out.append((gp.monic(), e))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return lead_total, out


def factor(f: Poly):
    """(leading unit, [(monic irreducible, multiplicity)]) over Q or GF(q)."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    F = f.field
    if isinstance(F, fields.RationalField):
        return _factor_rational(f)
    if isinstance(F, FiniteField):
        return _factor_finite(f)
    raise UnsupportedField(f"factorization over {F.name()} is not provided")


def resultant(f: Poly, g: Poly):
    """res(f, g) over the coefficient field, by the Euclidean formula."""
    F = f.field
    if f.is_zero() or g.is_zero():
        return F.zero
    if g.degree == 0:
        return F.pow(g.coeffs[0], f.degree)
    if f.degree == 0:
        return F.pow(f.coeffs[0], g.degree)
    r = f % g
    sign = F.from_int((-1) ** (f.degree * g.degree))
    if r.is_zero():
        return F.zero
    scale = F.pow(g.lc(), f.degree - r.degree)
    return F.mul(sign, F.mul(scale, resultant(g, r)))
