"""Arithmetic written inside the benchmark, independent of nilmat's own.

The checks use it to confirm orders, element orders, centrality and
reductions without trusting the code under test: plain integers mod p,
coefficient tuples mod an irreducible polynomial for GF(p^l), Fractions
for Q, power-basis tuples of Fractions for number fields, and evaluation
at a point for function fields.  Entries cross over through the public
file encoding (`field.format`), never through nilmat's internal values.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> dict:
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_power_of(n: int, p: int) -> bool:
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


class PrimeField:
    def __init__(self, p):
        self.p = p
        self.zero, self.one = 0, 1

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def parse(self, s):
        return int(s) % self.p


def _poly_rem(p, a, m):
    """Remainder of coefficient list a (low to high) by monic m, mod p."""
    a = [c % p for c in a]
    dm = len(m) - 1
    for k in range(len(a) - 1, dm - 1, -1):
        c = a[k]
        if c:
            for i in range(dm + 1):
                a[k - dm + i] = (a[k - dm + i] - c * m[i]) % p
    return tuple(a[:dm]) + (0,) * max(0, dm - len(a))


class ExtField:
    """GF(p^l) as coefficient tuples modulo a monic irreducible polynomial."""

    def __init__(self, p, modulus):
        self.p = p
        self.m = tuple(int(c) % p for c in modulus)
        self.l = len(self.m) - 1
        if self.m[-1] != 1 or not self._irreducible():
            raise ValueError(f"modulus {self.m} is not monic irreducible mod {p}")
        self.zero = (0,) * self.l
        self.one = (1,) + (0,) * (self.l - 1)

    def _irreducible(self):
        p, l = self.p, self.l
        for d in range(1, l // 2 + 1):
            for low in product(range(p), repeat=d):
                if _poly_rem(p, list(self.m), list(low) + [1]) == (0,) * d:
                    return False
        return True

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        prod = [0] * (2 * self.l - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return _poly_rem(self.p, prod, self.m)

    def parse(self, s):
        cs = [int(c) % self.p for c in s]
        return tuple(cs + [0] * (self.l - len(cs)))


class Rationals:
    zero, one = Fraction(0), Fraction(1)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def parse(self, s):
        return Fraction(str(s))


class NumberField:
    """Q(a), a a root of a monic integer polynomial; power-basis tuples."""

    def __init__(self, minpoly):
        self.m = tuple(int(c) for c in minpoly)
        self.d = len(self.m) - 1
        self.zero = (Fraction(0),) * self.d
        self.one = (Fraction(1),) + (Fraction(0),) * (self.d - 1)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def mul(self, a, b):
        d = self.d
        prod = [Fraction(0)] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:
                for i in range(d + 1):
                    prod[k - d + i] -= c * self.m[i]
        return tuple(prod[:d])

    def parse(self, s):
        cs = [Fraction(str(c)) for c in s]
        return tuple(cs + [Fraction(0)] * (self.d - len(cs)))


class EvaluatedFunctionField:
    """P(X), P = Q or GF(p), seen through X = point: entries become
    base-field values."""

    def __init__(self, base, point):
        self.base = base
        self.point = point
        self.zero, self.one = base.zero, base.one
        self.add, self.mul = base.add, base.mul

    def _eval(self, coeffs):
        B = self.base
        acc = B.zero
        for c in reversed(coeffs):
            acc = B.add(B.mul(acc, self.point), B.parse(c))
        return acc

    def parse(self, s):
        num, den = self._eval(s["num"]), self._eval(s["den"])
        if den == self.base.zero:
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        if isinstance(self.base, Rationals):
            return num / den
        return self.base.mul(num, pow(den, -1, self.base.p))


def field_of(desc: dict, point=None):
    """Plain field for a nilmat field descriptor (its `to_json()` form)."""
    kind = desc["kind"]
    if kind == "Q":
        return Rationals()
    if kind == "GF":
        p, l = int(desc["p"]), int(desc.get("l", 1))
        if l == 1:
            return PrimeField(p)
        return ExtField(p, desc["modulus"])
    if kind == "NF":
        return NumberField(desc["minpoly"])
    if kind == "FF":
        base = field_of(desc["base"])
        return EvaluatedFunctionField(base, base.parse(point))
    raise ValueError(f"unknown field kind {kind!r}")


def plain_matrix(F, m):
    """A nilmat Matrix as a tuple of plain rows, via the public encoding."""
    fmt = m.field.format
    return tuple(tuple(F.parse(fmt(c)) for c in row) for row in m.rows)


def mat_mul(F, a, b):
    bt = tuple(zip(*b))
    if isinstance(F, PrimeField):
        p = F.p
        return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in bt) for row in a)
    add, mul, zero = F.add, F.mul, F.zero
    out = []
    for row in a:
        orow = []
        for col in bt:
            acc = zero
            for x, y in zip(row, col):
                acc = add(acc, mul(x, y))
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


def identity(F, n):
    return tuple(tuple(F.one if i == j else F.zero for j in range(n)) for i in range(n))


def mat_pow(F, a, e):
    out = identity(F, len(a))
    while e:
        if e & 1:
            out = mat_mul(F, out, a)
        a = mat_mul(F, a, a)
        e >>= 1
    return out


def closure_order(F, gens, cap=10**5):
    """Size of the group the matrices generate, by breadth-first closure."""
    ident = identity(F, len(gens[0]))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = mat_mul(F, v, g)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if len(seen) > cap:
            raise ValueError(f"closure exceeds {cap} elements")
        frontier = nxt
    return len(seen)


def is_p_element(F, a, p, max_exp):
    """a^(p^k) is the identity for some k <= max_exp."""
    ident = identity(F, len(a))
    for _ in range(max_exp + 1):
        if a == ident:
            return True
        a = mat_pow(F, a, p)
    return False


def commute(F, a, b):
    return mat_mul(F, a, b) == mat_mul(F, b, a)


def reduce_rational(s: str, p: int) -> int:
    q = Fraction(s)
    return q.numerator * pow(q.denominator, -1, p) % p
