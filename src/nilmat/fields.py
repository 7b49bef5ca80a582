"""Exact arithmetic for the supported coefficient fields.

A Field object bundles the operations of one concrete field.  Element
values are plain hashable Python objects:

  rationals            fractions.Fraction
  GF(p^l)              int in [0, p^l), base-p digit encoding of the
                       coefficient vector over GF(p)
  number field Q(a)    tuple of m Fractions, power basis of a
  function field P(X)  pair (num, den) of coefficient tuples over P,
                       den monic, fraction reduced

Keeping values primitive means matrices assembled from them hash and
compare exactly, which the closure and Cayley machinery depends on.

`Field.matmul` is the one matrix product.  The base class runs the plain
add/mul loop, which defines the values; every concrete field overrides it
with a kernel that returns exactly the same canonical values: byte-packed
rows or one reduction per dot product over GF(p), Kronecker substitution of
digit vectors over GF(p^l), integer numerators over one common denominator
per row and column over Q and number fields, and polynomial numerators over
one monic common denominator per row and column over function fields, with
one reduction per entry.

`Field.row_kernel` multiplies rows by fixed matrices, for the Cayley
engine.  It returns the identity rows, `act`, which gives a batch of
rows' products with each matrix, and `values`, which decodes a row to its
canonical values.  Rows take one of three forms, each equal to another
exactly when their values are:
  - `bytes` of values, over GF(q) with q <= 64 and n(p - 1) < 256.  A
    product row is one integer sum of packed table entries T_j[c] = c *
    row j, one GF(p) digit per byte, reduced by one bytewise translate
    and, over GF(p^l), folded from digits to values by l - 1 masked
    shifts.  The multiplication and inverse tables come from one
    discrete-log pass.
  - integer rows (d, numerators...) in lowest terms, over Q and Q(a).  A
    product row is integer dot products, Kronecker-packed over Q(a), and
    one gcd; a Fraction is built only by `values`.
  - value tuples elsewhere, by the base class's one `matmul` against all
    the matrices' columns.

Over Q and number fields, matmul, the row kernel and pt_gcd clear
denominators once and run on integers, as do a Q(a) product (one integer
convolution folded by the minimal polynomial) and inverse (a fraction-free
Bareiss solve of the multiplication matrix); pt_gcd is the primitive
remainder sequence on integer or Z[a] numerators, with one field inverse
over Q(a).  Each returns exactly the canonical Fractions of the plain loop,
and each paid on a workload.  Over Q, pt_mul and pt_divmod are the plain
Fraction loops: integer versions showed no gain in a paired A/B.

GF(p^l) and Q(a) share one reduction table, the reductions of X^m ..
X^(2m-2) modulo the defining polynomial (`_power_reductions`), and one
fold of an integer convolution by it (`_fold`).  A given GF(p^l) modulus
is validated, and a seeded one found, by the distinct-degree split of
`poly.is_irreducible`.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import getitem, itemgetter, mul

from .errors import DenominatorDivisible, ParseError
from .numth import is_prime

_TABLE_MAX = 64


# ---------------------------------------------------------------------------
# raw polynomial helpers over an arbitrary Field (coefficient tuples,
# zero polynomial = empty tuple, highest coefficient nonzero)

def pt_trim(field, cs):
    cs = list(cs)
    while cs and field.is_zero(cs[-1]):
        cs.pop()
    return tuple(cs)


def pt_add(field, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else field.zero
        y = b[i] if i < len(b) else field.zero
        out.append(field.add(x, y))
    return pt_trim(field, out)


def pt_neg(field, a):
    return tuple(field.neg(c) for c in a)


def pt_sub(field, a, b):
    return pt_add(field, a, pt_neg(field, b))


def pt_mul(field, a, b):
    if not a or not b:
        return ()
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if field.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return pt_trim(field, out)


def pt_scale(field, a, c):
    if field.is_zero(c):
        return ()
    return pt_trim(field, [field.mul(x, c) for x in a])


def pt_divmod(field, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [field.zero] * max(0, len(a) - len(b) + 1)
    monic = field.is_one(b[-1])
    inv_lc = None if monic else field.inv(b[-1])
    while len(a) >= len(b) and a:
        c = a[-1] if monic else field.mul(a[-1], inv_lc)
        k = len(a) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] = field.sub(a[k + i], field.mul(c, y))
        while a and field.is_zero(a[-1]):
            a.pop()
    return pt_trim(field, q), pt_trim(field, a)


def pt_mod(field, a, b):
    return pt_divmod(field, a, b)[1]


def int_convolution(a, b):
    """Coefficients of the product of two integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_pseudo_remainder(a, b):
    """r with s*a = q*b + r and len(r) < len(b) over the integers, for some
    s != 0 and q.  A step whose leading coefficient c is not a multiple of
    lc(b) first scales by lc(b)/gcd(c, lc(b))."""
    r = list(a)
    while r and not r[-1]:
        r.pop()
    lc, m = b[-1], len(b)
    while len(r) >= m:
        c = r[-1]
        if c % lc:
            f = lc // gcd(c, lc)
            r, c = [x * f for x in r], c * f
        t, k = c // lc, len(r) - m
        for i, y in enumerate(b):
            r[k + i] -= t * y
        while r and not r[-1]:
            r.pop()
    return r


def primitive_ints(fracs):
    """Fraction sequence -> primitive integer list: the sequence times its
    least common denominator, divided by the gcd of the results."""
    ints, _ = _over_common_denominator(fracs)
    g = gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def _pt_gcd_q(a, b):
    """Monic gcd of nonzero a, b over Q by the primitive remainder sequence
    over Z, which avoids the coefficient blow-up of Fraction division; the
    remainders' signs may differ from Q's, which the final scaling undoes."""
    fa, fb = primitive_ints(a), primitive_ints(b)
    while fb:
        r = _int_pseudo_remainder(fa, fb)
        g = gcd(*r)
        fa, fb = fb, [c // g for c in r]
    return tuple(Fraction(c, fa[-1]) for c in fa)


def _without_int_content(cs):
    """Integer lists divided by the gcd of all their entries."""
    g = gcd(*chain(*cs))
    return [[x // g for x in c] for c in cs] if g > 1 else cs


def _pt_gcd_nf(field, a, b):
    """Monic gcd of nonzero a, b over Q(alpha) by the primitive
    pseudo-remainder sequence on Z[alpha] coefficient vectors: each step
    replaces r by lc(b) r - lc(r) t^k b until deg r < deg b, which keeps the
    gcd over Q(alpha), and the integer content is divided out after each
    remainder; then one field inverse makes the last remainder monic."""
    m, apow = field.degree, field._apow

    def mul(x, y):
        return _fold(int_convolution(x, y), apow)

    def integral(cs):
        ints, _ = _over_common_denominator([*chain(*cs)])
        return _without_int_content([ints[i:i + m] for i in range(0, len(ints), m)])

    a, b = integral(a), integral(b)
    while b:
        lc, n = b[-1], len(b)
        r = list(a)
        while len(r) >= n:
            c, k = r[-1], len(r) - n
            r = [mul(lc, x) for x in r]
            for i, y in enumerate(b):
                r[k + i] = [u - v for u, v in zip(r[k + i], mul(c, y))]
            r.pop()
            while r and not any(r[-1]):
                r.pop()
        a, b = b, (_without_int_content(r) if r else [])
    if len(a) == 1:
        return (field.one,)
    last = [tuple(Fraction(x) for x in c) for c in a]
    return pt_scale(field, last, field.inv(last[-1]))


def pt_gcd(field, a, b):
    """Monic gcd, () when both are zero.  Over Q and Q(alpha) by the
    primitive remainder sequence on integer and Z[alpha] numerators
    (`_pt_gcd_q`, `_pt_gcd_nf`), with at most one field inverse; over
    GF(q), Q(X) and GF(q)(X) by Euclid."""
    if not a:
        a, b = b, a
    if not b:
        if not a:
            return ()
        return pt_scale(field, a, field.inv(a[-1]))
    if isinstance(field, RationalField):
        return _pt_gcd_q(a, b)
    if isinstance(field, NumberField):
        return _pt_gcd_nf(field, a, b)
    while b:
        a, b = b, pt_mod(field, a, b)
    return pt_scale(field, a, field.inv(a[-1]))


def pt_eval(field, a, x):
    acc = field.zero
    for c in reversed(a):
        acc = field.add(field.mul(acc, x), c)
    return acc


# ---------------------------------------------------------------------------

class Field:
    """Common interface; concrete fields fill in the primitives."""

    kind = None

    def __init__(self):
        # fields are never mutated after construction, so neither is this hash
        self._hash = hash(self.descriptor())

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a):
        return a == self.zero

    def is_one(self, a):
        return a == self.one

    def pow(self, a, e):
        if e < 0:
            a = self.inv(a)
            e = -e
        out = self.one
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def characteristic(self):
        return 0

    def matmul(self, rows, cols):
        """Rows of the product of the matrix with these rows and the one with
        these columns.  This loop over add and mul defines the values; a
        field's own kernel must return exactly the same canonical values."""
        out = []
        for row in rows:
            orow = []
            for col in cols:
                acc = self.zero
                for a, b in zip(row, col):
                    acc = self.add(acc, self.mul(a, b))
                orow.append(acc)
            out.append(tuple(orow))
        return tuple(out)

    def row_kernel(self, mats):
        """(identity rows, act, values) for rows acted on by the fixed square
        matrices `mats` from the right: act(batch) gives, for each matrix,
        the list of the products of batch's rows with it, and values(row)
        is a row's tuple of canonical values.  Here rows are value tuples
        and act is one `matmul` against all the matrices' columns."""
        n = len(mats[0].rows)
        ident = tuple(tuple(self.one if i == j else self.zero for j in range(n)) for i in range(n))
        cols = tuple(c for m in mats for c in zip(*m.rows))
        return ident, lambda batch: _per_matrix(self.matmul(batch, cols), n, len(mats)), tuple

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Field) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self.name()


class RationalField(Field):
    kind = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        # a Fraction also for an int entry, which 1 / a would make a float
        return self.one / a

    # comparing with an int takes Fraction's fast path
    def is_zero(self, a):
        return a == 0

    def is_one(self, a):
        return a == 1

    def matmul(self, rows, cols):
        # integer numerators over one denominator per row and per column:
        # one normalizing gcd per entry instead of a Fraction per term
        ra = [_over_common_denominator(r) for r in rows]
        cb = [_over_common_denominator(c) for c in cols]
        return tuple(
            tuple(Fraction(sum(map(mul, na, nb)), da * db) for nb, db in cb)
            for na, da in ra
        )

    def row_kernel(self, mats):
        return _integer_row_kernel(mats, 1, None)

    def from_int(self, k):
        return Fraction(k)

    def descriptor(self):
        return ("Q",)

    def name(self):
        return "Q"

    def to_json(self):
        return {"kind": "Q"}

    def parse(self, s):
        if not isinstance(s, str):
            raise ParseError(f"rational entry must be a string, got {s!r}")
        try:
            v = Fraction(s)
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(f"bad rational entry {s!r}: {e}") from None
        return v

    def format(self, a):
        return str(a)

    def random_element(self, rng, size=6):
        num = rng.randint(-size, size)
        den = rng.randint(1, size)
        return Fraction(num, den)


QQ = RationalField()


def _power_reductions(monic, p=None):
    """Reductions of X^m .. X^(2m-2) modulo the monic integer polynomial
    of degree m with these coefficients, as integer coefficient tuples,
    reduced mod p when p is given."""
    red = [tuple(-c for c in monic[:-1])]
    for _ in range(len(monic) - 3):
        *cur, carry = (0, *red[-1])
        red.append(tuple(x + carry * y for x, y in zip(cur, red[0])))
    return [tuple(c % p for c in r) for r in red] if p else red


def _fold(conv, red):
    """The first m coefficients of a product's integer convolution conv,
    after folding its higher ones by the reductions red of X^m .. X^(2m-2)."""
    m = len(red[0])
    out = conv[:m]
    for c, r in zip(conv[m:], red):
        if c:
            out = [x + c * y for x, y in zip(out, r)]
    return out


def _over_common_denominator(fracs):
    """(integer numerators, d) with fracs[i] == numerators[i] / d, d least."""
    dens = [c.denominator for c in fracs]
    d = lcm(*dens)
    if d == 1:
        return [c.numerator for c in fracs], 1
    return [c.numerator * (d // e) for c, e in zip(fracs, dens)], d


def _per_matrix(prods, n, k):
    """Product rows with k matrices' n entries side by side, cut into one
    list of rows per matrix."""
    return [list(map(itemgetter(slice(s, s + n)), prods)) for s in range(0, n * k, n)]


def _pack(cs, bits):
    """The Kronecker substitution of the integers cs at 2^bits."""
    v = 0
    for c in reversed(cs):
        v = (v << bits) + c
    return v


def _unpack(s, bits, count):
    """The first count signed bits-bit slots of s, lowest first."""
    mask, half, full = (1 << bits) - 1, 1 << (bits - 1), 1 << bits
    out = []
    for _ in range(count):
        c = s & mask
        if c >= half:
            c -= full
        out.append(c)
        s = (s - c) >> bits
    return out


def _integer_row_kernel(mats, m, apow):
    """Field.row_kernel over Q (m = 1) and over Q(a) of degree m, apow being
    the reductions of a^m .. a^(2m-2).  A row is (d, numerators...), its n
    entries' m power-basis coefficients over d > 0 with gcd(d, numerators)
    = 1, so two rows are equal exactly when their values are.  Each matrix
    is cleared to integers over one denominator D once.  A product entry is
    an integer dot product, over Q(a) one of Kronecker substitutions at
    2^bits folded by apow, and a product row costs one gcd with d*D."""
    n, cleared, top = mats[0].n, [], 0
    for mat in mats:
        ints, d = _over_common_denominator([*chain(*mat.rows)] if m == 1 else [*chain(*chain(*mat.rows))])
        if m == 1:
            cleared.append((d, [ints[c::n] for c in range(n)]))
        else:
            top = max(top, *map(abs, ints))
            cleared.append((d, [[ints[(j * n + c) * m : (j * n + c + 1) * m] for j in range(n)] for c in range(n)]))
    ident = tuple((1, *(int(i == j * m) for i in range(n * m))) for j in range(n))
    packed = {}

    def canonical(d, nums):
        g = gcd(d, *nums) if d > 1 else 1
        return (d, *nums) if g == 1 else (d // g, *(x // g for x in nums))

    def act(batch):
        rows, mcols = [r[1:] for r in batch], cleared
        if m == 1:
            def entries(row, cols):
                return [sum(map(mul, row, c)) for c in cols]
        else:
            bits = (n * m * top * max(map(abs, chain(*rows)), default=0)).bit_length() + 1
            if bits not in packed:
                packed[bits] = [(d, [[_pack(e, bits) for e in col] for col in cols]) for d, cols in cleared]
            rows, mcols = [[_pack(r[i : i + m], bits) for i in range(0, n * m, m)] for r in rows], packed[bits]

            def entries(row, cols):
                return [x for c in cols for x in _fold(_unpack(sum(map(mul, row, c)), bits, 2 * m - 1), apow)]

        return [[canonical(r[0] * d, entries(row, cols)) for r, row in zip(batch, rows)] for d, cols in mcols]

    def values(row):
        fr = [Fraction(x, row[0]) for x in row[1:]]
        return tuple(fr) if m == 1 else tuple(tuple(fr[i : i + m]) for i in range(0, n * m, m))

    return ident, act, values


def reduce_mod(x: Fraction, p: int) -> int:
    """Reduce a rational with p-coprime denominator into GF(p)."""
    den = x.denominator
    if den % p == 0:
        raise DenominatorDivisible(f"denominator of {x} divisible by {p}")
    return x.numerator * pow(den, -1, p) % p


class FiniteField(Field):
    """GF(p^l); for l > 1 the modulus is an explicit monic irreducible.

    Elements are integers in [0, p^l) encoding the coefficient vector
    base p, least significant coefficient first.
    """

    kind = "GF"

    def __init__(self, p, l=1, modulus=None, seed=0):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if l < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.l = l
        self.q = p**l
        self.zero = 0
        self.one = 1 % self.q
        if l == 1:
            self.modulus = None
        else:
            if modulus is None:
                modulus = find_irreducible_modulus(p, l, seed)
            else:
                modulus = tuple(int(c) % p for c in modulus)
                if len(modulus) != l + 1 or modulus[-1] != 1:
                    raise ValueError("modulus must be monic of degree l")
                from .poly import Poly, is_irreducible

                if not is_irreducible(Poly.from_ints(field_from_json({"kind": "GF", "p": p}), modulus)):
                    raise ValueError("modulus is not irreducible over GF(p)")
            self.modulus = modulus
            self._xpow = _power_reductions(modulus, p)
        # x -> x mod p on single bytes, for the byte-packed products
        self._byte_mod = (bytes(range(p)) * (255 // p + 1))[:256] if p <= _TABLE_MAX else None
        self._mul_table = None
        self._inv_table = None
        if self.q <= _TABLE_MAX:
            self._build_tables()
        super().__init__()

    def _build_tables(self):
        """Multiplication and inverse tables from one discrete-log pass:
        the powers of the least primitive element g, q - 2 slow products
        for g itself, give exp and log, and a*b = exp[log a + log b]."""
        q = self.q
        for g in range(1, q):
            exp = [1]
            while len(exp) < q - 1:
                x = self._mul_slow(exp[-1], g)
                if x == 1:
                    break
                exp.append(x)
            else:
                break
        log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        exp2 = exp + exp
        logs = log[1:]
        self._mul_table = [[0] * q] + [[0, *map(exp2[log[a] :].__getitem__, logs)] for a in range(1, q)]
        self._inv_table = [0, *(exp[-i] for i in logs)]
        # for the row kernel: multiplication by each c as a bytes.translate
        # table, and each element's digits as bytes
        pad = bytes(256 - q)
        self._scale_bytes = [bytes(row) + pad for row in self._mul_table]
        self._digit_bytes = [bytes(self.digits(a)) for a in range(q)]

    # digit codecs
    def digits(self, a):
        p = self.p
        out = []
        for _ in range(self.l):
            out.append(a % p)
            a //= p
        return out

    def undigits(self, ds):
        v = 0
        for c in reversed(ds):
            v = v * self.p + (c % self.p)
        return v

    def add(self, a, b):
        if self.l == 1:
            return (a + b) % self.p
        da, db = self.digits(a), self.digits(b)
        return self.undigits([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a):
        if self.l == 1:
            return (-a) % self.p
        return self.undigits([(-x) % self.p for x in self.digits(a)])

    def _mul_slow(self, a, b):
        if self.l == 1:
            return a * b % self.p
        return self.undigits(_fold(int_convolution(self.digits(a), self.digits(b)), self._xpow))

    def mul(self, a, b):
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_slow(a, b)

    def matmul(self, rows, cols):
        if self.l > 1:
            return self._matmul_kronecker(rows, cols)
        p = self.p
        k = len(cols[0]) if cols else 0
        if k * (p - 1) ** 2 < 256:
            # a row of B packed one byte per entry: a row of the product is
            # one integer sum with no carry between bytes, reduced bytewise
            n_out = len(cols)
            packed = [int.from_bytes(bytes(r), "little") for r in zip(*cols)]
            red = self._byte_mod
            return tuple(
                tuple(sum(map(mul, row, packed)).to_bytes(n_out, "little").translate(red))
                for row in rows
            )
        return tuple(tuple(sum(map(mul, row, col)) % p for col in cols) for row in rows)

    def _matmul_kronecker(self, rows, cols):
        """GF(p^l) product by Kronecker substitution: a digit vector becomes
        one integer with `bits`-bit slots, so a whole dot product of them is
        one integer holding the exact convolution in 2l - 1 slots.  The high
        slots fold into the low l by the packed reductions of X^l..X^(2l-2);
        `bits` leaves room for that fold, and each low slot is reduced mod p
        once."""
        p, l = self.p, self.l
        k = len(cols[0]) if cols else 0
        top = k * l * (p - 1) ** 2 * (1 + (l - 1) * (p - 1))
        bits = top.bit_length() or 1
        mask = (1 << bits) - 1
        low = (1 << (bits * l)) - 1
        lows = range(bits * (l - 1), -1, -bits)

        folds = [(bits * (l + j), _pack(r, bits)) for j, r in enumerate(self._xpow)]

        def unpack(s):
            f = s & low
            for shift, r in folds:
                f += ((s >> shift) & mask) * r
            v = 0
            for shift in lows:
                v = v * p + ((f >> shift) & mask) % p
            return v

        packed = {v: _pack(self.digits(v), bits) for v in {*chain(*rows), *chain(*cols)}}.__getitem__
        pcols = [tuple(map(packed, c)) for c in cols]
        return tuple(
            tuple(unpack(sum(map(mul, pr, pc))) for pc in pcols)
            for pr in (tuple(map(packed, r)) for r in rows)
        )

    def row_kernel(self, mats):
        """Rows as `bytes` of element values when the field has tables and
        n(p - 1) < 256, else the base class's tuple rows.

        G = (g_1 | ... | g_k) is packed one GF(p) digit per byte, an
        element's l digits in l consecutive bytes, and T_j[c] is the packed
        row j of c*G, so a product row r*G is the one integer sum of
        T_j[r_j] over j, whose bytes are at most n(p - 1) and carry
        nothing.  One bytewise translate reduces its digits mod p; over
        GF(p^l), l - 1 masked shifts then fold each element's digits into
        its first byte and `[::l]` picks those out.  T_j[c] is built on
        first use by one translate of row j of G through the
        multiplication table, so a small group pays only for the entries
        its rows meet."""
        n, p, l = len(mats[0].rows), self.p, self.l
        if self._mul_table is None or n * (p - 1) >= 256:
            return super().row_kernel(mats)
        rows = [bytes(chain(*r)) for r in zip(*(m.rows for m in mats))]
        width, red = len(rows[0]) * l, self._byte_mod
        ident = tuple(bytes(j) + b"\x01" + bytes(n - 1 - j) for j in range(n))
        tables = [_ScaledRow(r, self) for r in rows]
        low = int.from_bytes((b"\xff" + bytes(l - 1)) * (width // l), "little")
        folds = [(8 * d, p**d) for d in range(1, l)]

        def fold(prod):
            x = int.from_bytes(prod, "little")
            y = x & low
            for shift, w in folds:
                y += (x >> shift & low) * w
            return y.to_bytes(width, "little")[::l]

        def act(batch):
            prods = [sum(map(getitem, tables, r)).to_bytes(width, "little").translate(red) for r in batch]
            return _per_matrix(list(map(fold, prods)) if folds else prods, n, len(mats))

        return ident, act, tuple

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self._inv_table is not None:
            return self._inv_table[a]
        if self.l == 1:
            return pow(a, -1, self.p)
        return self.pow(a, self.q - 2)

    def from_int(self, k):
        return k % self.p

    def characteristic(self):
        return self.p

    def elements(self):
        return range(self.q)

    def from_coeffs(self, cs):
        """Element from a GF(p) coefficient list (length <= l)."""
        ds = [int(c) % self.p for c in cs]
        if len(ds) > self.l:
            raise ValueError("coefficient vector longer than extension degree")
        ds += [0] * (self.l - len(ds))
        return self.undigits(ds)

    def multiplicative_generator(self):
        """Least primitive element, by exhaustive order check (small q only)."""
        from .numth import factorint

        fac = factorint(self.q - 1)
        for a in range(1, self.q):
            if all(self.pow(a, (self.q - 1) // t) != self.one for t in fac):
                return a
        raise RuntimeError("no generator found")

    def element_of_order(self, k):
        """Element of exact multiplicative order k (requires k | q - 1)."""
        if (self.q - 1) % k:
            raise ValueError(f"{k} does not divide {self.q - 1}")
        g = self.multiplicative_generator()
        return self.pow(g, (self.q - 1) // k)

    def descriptor(self):
        return ("GF", self.p, self.l, self.modulus)

    def name(self):
        if self.l == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.l})"

    def to_json(self):
        d = {"kind": "GF", "p": self.p, "l": self.l}
        if self.modulus is not None:
            d["modulus"] = [str(c) for c in self.modulus]
        return d

    def parse(self, s):
        if self.l == 1:
            try:
                return _json_int(s) % self.p
            except (ValueError, TypeError):
                raise ParseError(f"bad GF({self.p}) entry {s!r}") from None
        if not isinstance(s, (list, tuple)):
            raise ParseError(f"GF({self.p}^{self.l}) entry must be a coefficient array")
        try:
            return self.from_coeffs([_json_int(c) for c in s])
        except (ValueError, TypeError):
            raise ParseError(f"bad GF({self.p}^{self.l}) entry {s!r}") from None

    def format(self, a):
        if self.l == 1:
            return str(a)
        return [str(c) for c in self.digits(a)]

    def random_element(self, rng, size=None):
        return rng.randrange(self.q)


class _ScaledRow(dict):
    """T[c]: c times a row of GF(q) values, packed one GF(p) digit per byte
    as a little-endian integer, built on first use."""

    __slots__ = ("row", "scale", "digits")

    def __init__(self, row, field):
        self.row, self.scale = row, field._scale_bytes
        self.digits = field._digit_bytes.__getitem__ if field.l > 1 else None

    def __missing__(self, c):
        scaled = self.row.translate(self.scale[c])
        if self.digits is not None:
            scaled = b"".join(map(self.digits, scaled))
        out = self[c] = int.from_bytes(scaled, "little")
        return out


def find_irreducible_modulus(p, l, seed=0):
    """Monic irreducible of degree l over GF(p), by seeded random search."""
    from .poly import Poly, is_irreducible

    base = field_from_json({"kind": "GF", "p": p})
    rng = random.Random(f"modulus:{p}:{l}:{seed}")
    while True:
        coeffs = [rng.randrange(p) for _ in range(l)] + [1]
        if coeffs[0] and is_irreducible(Poly.from_ints(base, coeffs)):
            return tuple(coeffs)


class NumberField(Field):
    """Q(a) for a root a of a monic irreducible integer polynomial.

    Elements are coefficient tuples of Fractions in the power basis.
    Irreducibility of the defining polynomial is the caller's contract;
    the poly module provides the check used at parse time.
    """

    kind = "NF"

    def __init__(self, minpoly):
        mp = tuple(int(c) for c in minpoly)
        if len(mp) < 3 or mp[-1] != 1:
            raise ValueError("minpoly must be monic of degree >= 2")
        self.minpoly = mp
        self.degree = len(mp) - 1
        m = self.degree
        self.zero = tuple([Fraction(0)] * m)
        self.one = tuple([Fraction(1)] + [Fraction(0)] * (m - 1))
        self._apow = _power_reductions(mp)
        super().__init__()

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def is_zero(self, a):
        return not any(a)

    def mul(self, a, b):
        # integer numerators over one denominator each: one integer
        # convolution folded by the reductions of a^m .. a^(2m-2), and one
        # normalizing gcd per coefficient
        na, da = _over_common_denominator(a)
        nb, db = _over_common_denominator(b)
        d = da * db
        return tuple(Fraction(x, d) for x in _fold(int_convolution(na, nb), self._apow))

    def matmul(self, rows, cols):
        # coefficient vectors become integers over one denominator per row
        # and per column; a dot product of their Kronecker substitutions at
        # 2^bits is the exact integer convolution over the whole dot product,
        # reduced by the minimal polynomial once per entry
        m, apow = self.degree, self._apow
        ra = [_over_common_denominator([*chain(*r)]) for r in rows]
        cb = [_over_common_denominator([*chain(*c)]) for c in cols]
        k = len(cols[0]) if cols else 0
        top = max((max(map(abs, ints), default=0) for ints, _ in ra + cb), default=0)
        bits = (k * m * top * top).bit_length() + 1

        def pack(ints):
            return [_pack(ints[i : i + m], bits) for i in range(0, len(ints), m)]

        pcols = [(pack(ints), d) for ints, d in cb]
        return tuple(
            tuple(
                tuple(Fraction(x, da * db) for x in _fold(_unpack(sum(map(mul, pa, pb)), bits, 2 * m - 1), apow))
                for pb, db in pcols
            )
            for pa, da in ((pack(ints), d) for ints, d in ra)
        )

    def row_kernel(self, mats):
        return _integer_row_kernel(mats, self.degree, self._apow)

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of 0")
        # a = N/d: solve N x = 1 as the integer system M x = e_0, M the matrix
        # of multiplication by N, by fraction-free (Bareiss) elimination; by
        # Cramer x = y/det(M) with y integral, and a^-1 = d x
        m = self.degree
        col, d = _over_common_denominator(a)
        cols = [col]
        for _ in range(m - 1):
            col = [x + col[-1] * y for x, y in zip([0] + col[:-1], self._apow[0])]
            cols.append(col)
        rows = [list(r) + [int(i == 0)] for i, r in enumerate(zip(*cols))]
        det = 1
        for k in range(m):
            piv = next(i for i in range(k, m) if rows[i][k])
            rows[k], rows[piv] = rows[piv], rows[k]
            rk, prev, det = rows[k], det, rows[k][k]
            for i in range(k + 1, m):
                f = rows[i][k]
                rows[i] = [(det * x - f * y) // prev for x, y in zip(rows[i], rk)]
        # the last pivot is det(M) up to the sign of the row swaps
        y = [0] * m
        for i in reversed(range(m)):
            y[i] = (det * rows[i][m] - sum(map(mul, rows[i][i + 1 : m], y[i + 1 :]))) // rows[i][i]
        return tuple(Fraction(d * v, det) for v in y)

    def from_int(self, k):
        m = self.degree
        return tuple([Fraction(k)] + [Fraction(0)] * (m - 1))

    def descriptor(self):
        return ("NF", self.minpoly)

    def name(self):
        return f"Q(a), a^{self.degree} defined by {list(self.minpoly)}"

    def to_json(self):
        return {"kind": "NF", "minpoly": [str(c) for c in self.minpoly]}

    def parse(self, s):
        if not isinstance(s, (list, tuple)) or len(s) > self.degree:
            raise ParseError(f"number field entry must be a coefficient array of length <= {self.degree}")
        try:
            # a float has already lost digits, so only ints and strings
            cs = [Fraction(c if isinstance(c, str) else _json_int(c)) for c in s]
        except (ValueError, TypeError, ZeroDivisionError):
            raise ParseError(f"bad number field entry {s!r}") from None
        cs += [Fraction(0)] * (self.degree - len(cs))
        return tuple(cs)

    def format(self, a):
        return [str(c) for c in a]

    def random_element(self, rng, size=4):
        return tuple(Fraction(rng.randint(-size, size), rng.randint(1, 2)) for _ in range(self.degree))


class FunctionField(Field):
    """P(X) for P rational or finite; elements are reduced fractions of
    coefficient tuples over the base, denominator monic."""

    kind = "FF"

    def __init__(self, base):
        if isinstance(base, FunctionField):
            raise ValueError("function field base must not itself be a function field")
        if not isinstance(base, (RationalField, FiniteField)):
            raise ValueError("function field base must be Q or a finite field")
        self.base = base
        self.zero = ((), (base.one,))
        self.one = ((base.one,), (base.one,))
        super().__init__()

    def make(self, num, den):
        B = self.base
        num = pt_trim(B, num)
        den = pt_trim(B, den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return self.zero
        if len(den) == 1 and B.is_one(den[0]):
            return (num, den)
        g = pt_gcd(B, num, den)
        if len(g) > 1 or not B.is_one(g[0]):
            num = pt_divmod(B, num, g)[0]
            den = pt_divmod(B, den, g)[0]
        c = B.inv(den[-1])
        if not B.is_one(den[-1]):
            num = pt_scale(B, num, c)
            den = pt_scale(B, den, c)
        return (num, den)

    def x(self):
        B = self.base
        return ((B.zero, B.one), (B.one,))

    def add(self, a, b):
        B = self.base
        (n1, d1), (n2, d2) = a, b
        return self.make(pt_add(B, pt_mul(B, n1, d2), pt_mul(B, n2, d1)), pt_mul(B, d1, d2))

    def neg(self, a):
        return (pt_neg(self.base, a[0]), a[1])

    def mul(self, a, b):
        B = self.base
        return self.make(pt_mul(B, a[0], b[0]), pt_mul(B, a[1], b[1]))

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of 0")
        return self.make(a[1], a[0])

    def matmul(self, rows, cols):
        # numerators over one monic common denominator per row and per column:
        # one normalizing gcd per entry instead of one per term, and none
        # when both denominators are 1
        B, one = self.base, self.one[1]
        ra = [self.over_common_denominator(r) for r in rows]
        cb = [self.over_common_denominator(c) for c in cols]
        out = []
        for na, da in ra:
            orow = []
            for nb, db in cb:
                acc = ()
                for x, y in zip(na, nb):
                    if x and y:
                        acc = pt_add(B, acc, pt_mul(B, x, y))
                if da == one and db == one:
                    orow.append((acc, one))
                else:
                    orow.append(self.make(acc, pt_mul(B, da, db)))
            out.append(tuple(orow))
        return tuple(out)

    def over_common_denominator(self, entries):
        """(numerators, d) with entries[i] == numerators[i] / d, d the monic
        least common multiple of the denominators."""
        B = self.base
        d = self.one[1]
        for _, den in entries:
            if den != d and len(den) > 1:
                d = pt_mul(B, d, pt_divmod(B, den, pt_gcd(B, d, den))[0])
        return [
            num if den == d else pt_mul(B, num, pt_divmod(B, d, den)[0])
            for num, den in entries
        ], d

    def from_int(self, k):
        B = self.base
        v = B.from_int(k)
        if B.is_zero(v):
            return self.zero
        return ((v,), (B.one,))

    def characteristic(self):
        return self.base.characteristic()

    def descriptor(self):
        return ("FF", self.base.descriptor())

    def name(self):
        return f"{self.base.name()}(X)"

    def to_json(self):
        return {"kind": "FF", "base": self.base.to_json()}

    def parse(self, s):
        if not isinstance(s, dict) or "num" not in s or "den" not in s:
            raise ParseError("function field entry must be {\"num\": [...], \"den\": [...]}")
        if not all(isinstance(s[k], (list, tuple)) for k in ("num", "den")):
            raise ParseError(f"function field entry {s!r} must give num and den as arrays")
        B = self.base
        try:
            num = tuple(B.parse(c) for c in s["num"])
            den = tuple(B.parse(c) for c in s["den"])
            return self.make(num, den)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in entry {s!r}") from None

    def format(self, a):
        B = self.base
        return {"num": [B.format(c) for c in a[0]], "den": [B.format(c) for c in a[1]]}

    def random_element(self, rng, size=2):
        B = self.base
        num = tuple(B.random_element(rng) for _ in range(rng.randint(1, size)))
        den = tuple([B.random_element(rng) for _ in range(rng.randint(0, size - 1))] + [B.one])
        try:
            return self.make(num, den)
        except ZeroDivisionError:
            return self.one


# built fields by (canonical descriptor text, seed), and by the field itself,
# so that spellings of one field ("p": 5 and "p": "5") share one object
_FIELDS = {}


def field_from_json(d, seed=0):
    """The field a JSON descriptor names; ParseError when it names none.

    Fields are immutable, so each is built once per process: its
    irreducibility test and multiplication tables are paid on first use.
    A descriptor that JSON cannot encode is built each time."""
    try:
        key = (json.dumps(d, sort_keys=True), seed)
    except (TypeError, ValueError):
        return _build_field(d, seed)
    field = _FIELDS.get(key)
    if field is None:
        built = _build_field(d, seed)
        field = _FIELDS[key] = _FIELDS.setdefault(built, built)
    return field


def _json_int(v):
    """An int or integer string from a group file as an int.  Booleans and
    floats, which int() would read as 1 or truncate, raise TypeError."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise TypeError(f"not an integer: {v!r}")
    return int(v)


def _json_ints(v):
    """A JSON array of _json_int values as a tuple of ints.  Anything but an
    array, which would be iterated by character or by key, raises
    TypeError."""
    if not isinstance(v, (list, tuple)):
        raise TypeError(f"not an array: {v!r}")
    return tuple(map(_json_int, v))


def _build_field(d, seed):
    if not isinstance(d, dict) or "kind" not in d:
        raise ParseError("field descriptor must be an object with a 'kind'")
    kind = d["kind"]
    if kind == "Q":
        return QQ
    if kind == "GF":
        try:
            p = _json_int(d["p"])
            l = _json_int(d.get("l", 1))
            modulus = d.get("modulus")
            if modulus is not None:
                modulus = _json_ints(modulus)
        except (KeyError, ValueError, TypeError):
            raise ParseError(f"bad GF descriptor {d!r}") from None
        try:
            return FiniteField(p, l, modulus, seed=seed)
        except ValueError as e:
            raise ParseError(str(e)) from None
    if kind == "NF":
        try:
            mp = _json_ints(d["minpoly"])
        except (KeyError, ValueError, TypeError):
            raise ParseError(f"bad NF descriptor {d!r}") from None
        try:
            nf = NumberField(mp)
        except ValueError as e:
            raise ParseError(str(e)) from None
        from .poly import Poly, is_irreducible

        if not is_irreducible(Poly.from_ints(QQ, mp)):
            raise ParseError("number field minpoly is not irreducible over Q")
        return nf
    if kind == "FF":
        base = field_from_json(d.get("base", {}), seed=seed)
        try:
            return FunctionField(base)
        except ValueError as e:
            raise ParseError(str(e)) from None
    raise ParseError(f"unknown field kind {kind!r}")
