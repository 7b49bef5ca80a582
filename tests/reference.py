"""Fraction reference kernels for Q[x] and number fields.

These are the plain Fraction loops that the integer kernels of
nilmat.fields replace; like `schoolbook` for `Field.matmul`, they define
the values the kernels must return, value for value and repr for repr.
Polynomials are ascending coefficient tuples with a nonzero last entry.
"""

from fractions import Fraction


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


def poly_lcm(a, b):
    if not a or not b:
        return ()
    return monic(poly_divmod(poly_mul(a, b), poly_gcd(a, b))[0])


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
