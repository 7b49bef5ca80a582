"""The groups each workload runs on, with the labels their construction gives.

Every group is conjugated by one matrix drawn from the seed: a random
invertible matrix over GF(q), or a small unimodular matrix (a signed
permutation times one elementary row operation) over Q, number fields and
function fields.  Conjugation keeps order, nilpotency, class, finiteness
and complete reducibility, so the labels below hold for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from nilmat.fields import QQ, FiniteField, FunctionField, NumberField
from nilmat.groups import GroupSpec
from nilmat.linalg import Matrix, inverse
from nilmat.testkit import gen_max_abs_irr_nilpotent, gen_reducible_nilpotent


@dataclass
class Entry:
    label: str
    group: GroupSpec
    nilpotent: bool
    finite: bool
    order: int | None = None   # exact order by formula; None: finite ones are closed by plain.py
    cr: bool | None = None     # complete reducibility as analyze reports it (None: not reported)
    semisimple: bool = True    # every generator diagonalizable, so `reduce` applies
    analyze: bool = True       # the library workloads run analyze on it (if nilpotent)


# ---------------------------------------------------------------------------
# building blocks

def _m(F, rows):
    return Matrix.from_ints(F, rows)


def _blockdiag(F, blocks):
    n = sum(b.n for b in blocks)
    rows, off = [], 0
    for b in blocks:
        for r in b.rows:
            rows.append([F.zero] * off + list(r) + [F.zero] * (n - off - b.n))
        off += b.n
    return Matrix.make(F, rows)


def _perm(F, images):
    """Permutation matrix sending basis vector j to basis vector images[j]."""
    n = len(images)
    return _m(F, [[1 if images[j] == i else 0 for j in range(n)] for i in range(n)])


def _unitriangular(F, n):
    """Generators E_{i,i+1} of the unitriangular group UT(n)."""
    return [
        _m(F, [[1 if a == b or (a == i and b == i + 1) else 0 for b in range(n)] for a in range(n)])
        for i in range(n - 1)
    ]


def q8_power(k):
    """Block-diagonal Q8^k <= GL(2k, 3): an i and a j in each block."""
    F = FiniteField(3)
    qi, qj, one = _m(F, [[0, -1], [1, 0]]), _m(F, [[1, 1], [1, -1]]), Matrix.identity(F, 2)
    gens = []
    for b in range(k):
        for x in (qi, qj):
            gens.append(_blockdiag(F, [x if c == b else one for c in range(k)]))
    return F, gens


def dihedral_2group(p, k):
    """Dihedral group of order 2^(k+1) over GF(p), monomial form."""
    F = FiniteField(p)
    z = F.element_of_order(2**k)
    return F, [Matrix.diagonal(F, (z, F.inv(z))), _m(F, [[0, 1], [1, 0]])]


def _gl23():
    F = FiniteField(3)
    return F, [_m(F, [[1, 1], [0, 1]]), _m(F, [[0, 1], [1, 0]])]


def _sl23():
    F = FiniteField(3)
    return F, [_m(F, [[1, 1], [0, 1]]), _m(F, [[1, 0], [1, 1]])]


def _borel(F):
    return [_m(F, [[1, 1], [0, 1]]), Matrix.diagonal(F, (F.multiplicative_generator(), F.one))]


def _s3(F):
    return [_perm(F, [1, 2, 0]), _perm(F, [1, 0, 2])]


def _dihedral_monomial(F):
    z = F.multiplicative_generator()
    return [Matrix.diagonal(F, (z, F.inv(z))), _m(F, [[0, 1], [1, 0]])]


def _d8(F):
    return [_m(F, [[0, -1], [1, 0]]), _m(F, [[1, 0], [0, -1]])]


def _sqrt2():
    K = NumberField((-2, 0, 1))
    return K, (Fraction(0), Fraction(1))


def _d16_sqrt2(K):
    """Rotation by pi/4 and a reflection over Q(sqrt 2)."""
    h = (Fraction(0), Fraction(1, 2))
    return [Matrix.make(K, [[h, K.neg(h)], [h, h]]), _m(K, [[1, 0], [0, -1]])]


# ---------------------------------------------------------------------------
# conjugators

def _gf_conjugator(rng, F, n):
    """L * U with L unit lower triangular and U upper triangular with a
    nonzero diagonal, so every draw is invertible and costs the same."""
    def nonzero():
        while True:
            c = F.random_element(rng)
            if c != F.zero:
                return c

    lower = [[F.one if i == j else (F.random_element(rng) if j < i else F.zero) for j in range(n)] for i in range(n)]
    upper = [[nonzero() if i == j else (F.random_element(rng) if j > i else F.zero) for j in range(n)] for i in range(n)]
    t = Matrix.make(F, lower) * Matrix.make(F, upper)
    return t, inverse(t)


def _unimodular_conjugator(rng, F, n):
    images = list(range(n))
    rng.shuffle(images)
    rows = [[rng.choice((1, -1)) if images[j] == i else 0 for j in range(n)] for i in range(n)]
    i, j = rng.sample(range(n), 2)
    c = rng.choice((1, -1))
    rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    t = _m(F, rows)
    return t, inverse(t)


def conjugated(rng, F, gens):
    n = gens[0].n
    if isinstance(F, FiniteField):
        t, tinv = _gf_conjugator(rng, F, n)
    else:
        t, tinv = _unimodular_conjugator(rng, F, n)
    return GroupSpec(F, [t * g * tinv for g in gens])


def _entry(rng, label, F, gens, nilpotent, finite, order=None, cr=None, semisimple=True, analyze=True):
    return Entry(label, conjugated(rng, F, gens), nilpotent, finite, order, cr, semisimple, analyze)


# ---------------------------------------------------------------------------
# stocks

# (n, p, l); analyze on the last two takes 3-4 s and 6.5-8 s (2 CPUs, Python 3.11),
# more than a round can hold, so only their verdicts are timed
MAX_IRR = ((2, 5, 1), (2, 13, 1), (3, 7, 1), (3, 13, 1), (2, 3, 2), (3, 2, 2), (2, 5, 2), (4, 5, 1), (6, 13, 1))
VERDICT_ONLY = {(4, 5, 1), (6, 13, 1)}


def finite_stock(rng):
    out = []
    for n, p, l in MAX_IRR:
        G = gen_max_abs_irr_nilpotent(n, p, l)
        analyze = (n, p, l) not in VERDICT_ONLY
        out.append(_entry(rng, f"max-irr({n},GF({p**l}))", G.field, list(G.gens), True, True, cr=True, analyze=analyze))
    for k in (1, 2, 3):
        F, gens = q8_power(k)
        out.append(_entry(rng, f"Q8^{k}", F, gens, True, True, 8**k, cr=True))
    F5 = FiniteField(5)
    red = gen_reducible_nilpotent(GroupSpec(F5, _d8(F5)))
    out.append(_entry(rng, "reducible(D8,GF(5))", F5, list(red.gens), True, True, 8 * 5, cr=False))
    base = gen_max_abs_irr_nilpotent(2, 3, 2)
    red = gen_reducible_nilpotent(base)
    out.append(_entry(rng, "reducible(max-irr(2,GF(9)))", red.field, list(red.gens), True, True, 128 * 3, cr=False))
    for q in (7, 13):
        F = FiniteField(q)
        out.append(_entry(rng, f"borel(GF({q}))", F, _borel(F), False, True, q * (q - 1)))
    F9 = FiniteField(3, 2)
    out.append(_entry(rng, "borel(GF(9))", F9, _borel(F9), False, True, 9 * 8))
    F, gens = _gl23()
    out.append(_entry(rng, "GL(2,3)", F, gens, False, True, 48))
    F, gens = _sl23()
    out.append(_entry(rng, "SL(2,3)", F, gens, False, True, 24))
    out.append(_entry(rng, "S3(GF(5))", F5, _s3(F5), False, True, 6))
    for q in (7, 11):
        F = FiniteField(q)
        out.append(_entry(rng, f"dihedral-monomial(GF({q}))", F, _dihedral_monomial(F), False, True, 2 * (q - 1)))
    return out


def char0_stock(rng):
    Q = QQ
    out = []
    signed = [Matrix.diagonal(Q, tuple(Fraction(c) for c in (-1, 1, 1, 1))), _perm(Q, [1, 2, 3, 0]), _perm(Q, [2, 1, 0, 3])]
    # analyze on it takes 5-7 s, more than a round can hold
    out.append(_entry(rng, "signed-perm-Sylow2(4,Q)", Q, signed, True, True, 128, cr=True, analyze=False))
    qi = _m(Q, [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    qj = _m(Q, [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
    out.append(_entry(rng, "Q8(4,Q)", Q, [qi, qj], True, True, 8, cr=True))
    rot, refl = _d8(Q)
    one, mone, i2 = _m(Q, [[1]]), _m(Q, [[-1]]), Matrix.identity(Q, 2)
    d8c2 = [_blockdiag(Q, [rot, one]), _blockdiag(Q, [refl, one]), _blockdiag(Q, [i2, mone])]
    out.append(_entry(rng, "D8xC2(3,Q)", Q, d8c2, True, True, 16, cr=True))
    K, s2 = _sqrt2()
    out.append(_entry(rng, "D16(2,Q(sqrt2))", K, _d16_sqrt2(K), True, True, 16, cr=True))
    Ki = NumberField((1, 0, 1))
    i_ = (Fraction(0), Fraction(1))
    c4wr = [Matrix.diagonal(Ki, (i_, Ki.one)), _m(Ki, [[0, 1], [1, 0]])]
    out.append(_entry(rng, "C4wrC2(2,Q(i))", Ki, c4wr, True, True, 32, cr=True))
    e12, e23 = _unitriangular(Q, 3)
    e13 = _m(Q, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    out.append(_entry(rng, "heisenberg(3,Q)", Q, [e12, e23], True, False, cr=False))
    out.append(_entry(rng, "UT3(Q)", Q, [e12, e13, e23], True, False, cr=False))
    red = gen_reducible_nilpotent(GroupSpec(Q, [rot, refl]))
    out.append(_entry(rng, "reducible(D8,Q)", Q, list(red.gens), True, False, cr=False))
    scalar = Matrix.diagonal(K, (s2, s2))
    out.append(_entry(rng, "D16x<sqrt2*I>(2,Q(sqrt2))", K, _d16_sqrt2(K) + [scalar], True, False, cr=True))
    for base, name, cr in ((Q, "Q(x)", True), (FiniteField(5), "GF(5)(x)", None)):
        Fx = FunctionField(base)
        x = Fx.x()
        gens = _d8(Fx) + [Matrix.diagonal(Fx, (x, x))]
        out.append(_entry(rng, f"D8x<x*I>(2,{name})", Fx, gens, True, False, cr=cr))
    s4 = [_perm(Q, [1, 0, 2, 3]), _perm(Q, [1, 2, 3, 0])]
    out.append(_entry(rng, "S4(4,Q)", Q, s4, False, True, 24))
    a4 = [_perm(Q, [1, 0, 3, 2]), _perm(Q, [1, 2, 0, 3])]
    out.append(_entry(rng, "A4(4,Q)", Q, a4, False, True, 12))
    swap = _m(Q, [[0, 1], [1, 0]])
    out.append(_entry(rng, "diag(3,1)+swap(Q)", Q, [_m(Q, [[3, 0], [0, 1]]), swap], False, False))
    out.append(
        _entry(rng, "diag(sqrt2,1)+swap(Q(sqrt2))", K, [Matrix.diagonal(K, (s2, K.one)), _m(K, [[0, 1], [1, 0]])], False, False)
    )
    return out


def cli_stock(rng):
    """Small groups over every field kind; about half are not nilpotent, and
    the negative ones cover every witness kind the pipeline emits on them."""
    Q = QQ
    F5 = FiniteField(5)
    F9 = FiniteField(3, 2)
    K, s2 = _sqrt2()
    Qx, F5x = FunctionField(Q), FunctionField(F5)
    out = [
        _entry(rng, "dihedral-monomial-GF5", F5, _dihedral_monomial(F5), True, True, 8),
        _entry(rng, "max-irr-2-GF9", F9, list(gen_max_abs_irr_nilpotent(2, 3, 2).gens), True, True, 128),
        _entry(rng, "D8-Q", Q, _d8(Q), True, True, 8),
        _entry(rng, "D16-Qsqrt2", K, _d16_sqrt2(K), True, True, 16),
        _entry(rng, "heisenberg-Q", Q, _unitriangular(Q, 3), True, False, semisimple=False),
        _entry(rng, "rot4-scaled-Q", Q, [_m(Q, [[0, -2], [2, 0]])], True, False),
        _entry(rng, "unipotent-x-GF5x", F5x, [Matrix.make(F5x, [[F5x.one, F5x.x()], [F5x.zero, F5x.one]])], True, True, 5, semisimple=False),
        _entry(rng, "D8-xI-GF5x", F5x, _d8(F5x) + [Matrix.diagonal(F5x, (F5x.x(), F5x.x()))], True, False),
        _entry(rng, "D8-xI-Qx", Qx, _d8(Qx) + [Matrix.diagonal(Qx, (Qx.x(), Qx.x()))], True, False),
        _entry(rng, "S3-GF5", F5, _s3(F5), False, True),
        _entry(rng, "borel-GF9", F9, _borel(F9), False, True),
        _entry(rng, "SL2Z-Q", Q, [_m(Q, [[1, 1], [0, 1]]), _m(Q, [[1, 0], [1, 1]])], False, False, semisimple=False),
        _entry(rng, "borel-Q", Q, [_m(Q, [[1, 1], [0, 1]]), _m(Q, [[2, 0], [0, 1]])], False, False, semisimple=False),
        _entry(rng, "diag31-swap-Q", Q, [_m(Q, [[3, 0], [0, 1]]), _m(Q, [[0, 1], [1, 0]])], False, False),
        _entry(rng, "diag-sqrt2-swap-Qsqrt2", K, [Matrix.diagonal(K, (s2, K.one)), _m(K, [[0, 1], [1, 0]])], False, False),
        _entry(rng, "diag-x-swap-Qx", Qx, [Matrix.diagonal(Qx, (Qx.x(), Qx.one)), _m(Qx, [[0, 1], [1, 0]])], False, False),
        _entry(rng, "diag-x-swap-GF5x", F5x, [Matrix.diagonal(F5x, (F5x.x(), F5x.one)), _m(F5x, [[0, 1], [1, 0]])], False, False),
    ]
    return out


@dataclass
class OracleEntry:
    label: str
    gens: list
    order: int
    nilpotent: bool
    klass: int | None
    center: int


def oracle_stock(rng):
    """Both sides of testkit's switch from the literal lower central series
    to normal closures at order 400."""
    out = []

    def add(label, F, gens, order, nilpotent, klass, center):
        out.append(OracleEntry(label, list(conjugated(rng, F, gens).gens), order, nilpotent, klass, center))

    F, gens = q8_power(2)
    add("Q8^2", F, gens, 64, True, 2, 4)
    add("UT3(5)", FiniteField(5), _unitriangular(FiniteField(5), 3), 5**3, True, 2, 5)
    add("UT4(3)", FiniteField(3), _unitriangular(FiniteField(3), 4), 3**6, True, 3, 3)
    for p, k in ((17, 4), (97, 5)):
        F, gens = dihedral_2group(p, k)
        add(f"D{2**(k + 1)}(GF({p}))", F, gens, 2 ** (k + 1), True, k, 2)
    F, gens = _gl23()
    add("GL(2,3)", F, gens, 48, False, None, 2)
    F, gens = _sl23()
    add("SL(2,3)", F, gens, 24, False, None, 2)
    return out
