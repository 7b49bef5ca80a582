"""Polynomial arithmetic and factorization."""

import itertools
import random

import pytest

from nilmat.errors import ImperfectField, UnsupportedField
from nilmat.fields import QQ, FiniteField, FunctionField, NumberField
from nilmat.poly import (
    Poly,
    factor,
    gcd,
    is_irreducible,
    resultant,
    squarefree_part,
)
from reference import gfp_is_irreducible


def expand(lead, facs, field):
    out = Poly.make(field, [lead])
    for g, e in facs:
        for _ in range(e):
            out = out * g
    return out


def test_squarefree_part_examples():
    # (X-1)^2 over Q
    f = Poly.from_ints(QQ, [1, -2, 1])
    assert squarefree_part(f) == Poly.from_ints(QQ, [-1, 1])
    # X^2 - 2 already squarefree
    f2 = Poly.from_ints(QQ, [-2, 0, 1])
    assert squarefree_part(f2) == f2
    # X^5 - X^4 over GF(5): distinct roots 0 and 1
    F5 = FiniteField(5)
    f3 = Poly.from_ints(F5, [0, 0, 0, 0, -1, 1])
    assert squarefree_part(f3) == Poly.from_ints(F5, [0, -1, 1])


def test_squarefree_part_divides_and_is_coprime_with_derivative():
    rng = random.Random(11)
    for field in (QQ, FiniteField(5), FiniteField(3, 2)):
        for _ in range(40):
            coeffs = [field.random_element(rng) for _ in range(rng.randint(1, 5))] + [field.one]
            f = Poly.make(field, coeffs)
            if f.degree < 1:
                continue
            s = squarefree_part(f)
            assert (f % s).is_zero()
            assert gcd(s, s.derivative()).degree == 0


def test_squarefree_part_over_char_p_function_fields():
    """Yun's p-th root over GF(q)(X) maps X^(kp) to X^k and inverts the
    Frobenius on the base: t^5 - X^5 = (t - X)^5 over GF(5)(X), and
    (t - aX)^3 and (t - a/X)^3 over GF(9)(X) with a outside GF(3);
    t^5 - X is inseparable and raises, and X * I_5 is semisimple with
    minimal polynomial t - X."""
    from nilmat.linalg import Matrix, semisimple_minpoly

    F5 = FunctionField(FiniteField(5))
    X = F5.x()
    t = Poly.x(F5)
    lin = t - Poly.make(F5, [X])
    assert squarefree_part(expand(F5.one, [(lin, 5)], F5)) == lin
    with pytest.raises(ImperfectField):
        squarefree_part(expand(F5.one, [(t, 5)], F5) - Poly.make(F5, [X]))
    assert semisimple_minpoly(Matrix.diagonal(F5, (X,) * 5)) == lin
    F9 = FunctionField(FiniteField(3, 2))
    a = F9.make((F9.base.from_coeffs([0, 1]),), (F9.base.one,))
    aX = F9.mul(a, F9.x())
    lin9 = Poly.x(F9) - Poly.make(F9, [aX])
    assert squarefree_part(expand(F9.one, [(lin9, 3)], F9)) == lin9
    a_over_x = Poly.x(F9) - Poly.make(F9, [F9.mul(a, F9.inv(F9.x()))])
    assert squarefree_part(expand(F9.one, [(a_over_x, 3)], F9)) == a_over_x


def test_factor_examples():
    F7 = FiniteField(7)
    _, facs = factor(Poly.from_ints(F7, [-2, 0, 1]))
    roots = sorted(F7.neg(g.coeffs[0]) for g, _ in facs)
    assert roots == [3, 4]
    F5 = FiniteField(5)
    _, facs5 = factor(Poly.from_ints(F5, [-2, 0, 1]))
    assert len(facs5) == 1 and facs5[0][0].degree == 2
    _, facsq = factor(Poly.from_ints(QQ, [-1, 0, 1]))
    assert [g.coeffs for g, _ in facsq] == [
        Poly.from_ints(QQ, [-1, 1]).coeffs,
        Poly.from_ints(QQ, [1, 1]).coeffs,
    ]


def test_factor_unsupported_fields():
    nf = NumberField((-2, 0, 1))
    with pytest.raises(UnsupportedField):
        factor(Poly.make(nf, [nf.one, nf.one]))
    ff = FunctionField(QQ)
    with pytest.raises(UnsupportedField):
        factor(Poly.make(ff, [ff.one, ff.one]))


def test_factor_reexpand_random():
    """factor then re-expand equals the input, 500 random polynomials."""
    rng = random.Random(23)
    count_gf = 0
    for q, l in ((5, 1), (7, 1), (2, 1), (3, 2), (13, 1)):
        F = FiniteField(q, l)
        for _ in range(80):
            deg = rng.randint(1, 8)
            coeffs = [F.random_element(rng) for _ in range(deg)] + [
                F.random_element(rng)
            ]
            f = Poly.make(F, coeffs)
            if f.degree < 1:
                continue
            lead, facs = factor(f)
            assert expand(lead, facs, F) == f
            for g, _ in facs:
                assert g.lc() == F.one
            count_gf += 1
    count_q = 0
    while count_q < 150:
        deg = rng.randint(1, 6)
        coeffs = [QQ.random_element(rng, 5) for _ in range(deg)] + [QQ.random_element(rng, 3)]
        f = Poly.make(QQ, coeffs)
        if f.degree < 1:
            continue
        lead, facs = factor(f)
        assert expand(lead, facs, QQ) == f
        count_q += 1
    assert count_gf + count_q >= 500


def test_factor_rational_products_of_knowns():
    # deliberate multi-factor products with multiplicities
    f = Poly.from_ints(QQ, [2, 1]) * Poly.from_ints(QQ, [2, 1]) * Poly.from_ints(QQ, [-1, 0, 3])
    lead, facs = factor(f)
    assert expand(lead, facs, QQ) == f
    degs = sorted((g.degree, e) for g, e in facs)
    assert degs == [(1, 2), (2, 1)]


def test_is_irreducible_over_Q():
    assert is_irreducible(Poly.from_ints(QQ, [-2, 0, 1]))
    assert not is_irreducible(Poly.from_ints(QQ, [-1, 0, 1]))
    assert is_irreducible(Poly.from_ints(QQ, [1, 1, 1, 1, 1]))  # 5th cyclotomic


def test_is_irreducible_over_gfp_matches_divisor_search():
    """Every monic polynomial of degree 1-4 over GF(2) and GF(3) and of
    degree 1-3 over GF(5), against a search over all monic divisors; over
    GF(2) these include inseparable squares such as X^2 + 1 = (X + 1)^2."""
    for p, top in ((2, 4), (3, 4), (5, 3)):
        F = FiniteField(p)
        for n in range(1, top + 1):
            for low in itertools.product(range(p), repeat=n):
                coeffs = [*low, 1]
                assert is_irreducible(Poly.from_ints(F, coeffs)) == gfp_is_irreducible(p, coeffs), (p, coeffs)
    F2, F3 = FiniteField(2), FiniteField(3)
    for square in ([1, 0, 1], [1, 0, 0, 0, 1], [1, 0, 1, 0, 1]):
        assert not is_irreducible(Poly.from_ints(F2, square))
    # the test makes its input monic: 2X^2 + 2 = 2(X^2 + 1) over GF(3)
    assert is_irreducible(Poly.from_ints(F3, [2, 0, 2]))
    assert not is_irreducible(Poly.from_ints(F3, [2]))


def test_resultant_and_discriminant():
    f = Poly.from_ints(QQ, [-2, 0, 1])
    # disc(f) = (-1)^(d(d-1)/2) res(f, f') / lc(f), here -res(f, f')
    assert QQ.neg(resultant(f, f.derivative())) == QQ.from_int(8)
    g = Poly.from_ints(QQ, [-1, 1])
    h = Poly.from_ints(QQ, [1, 1])
    # res(X-1, X+1) = value of X+1 at 1 = 2 up to sign conventions
    r = resultant(g, h)
    assert r in (QQ.from_int(2), QQ.from_int(-2))
    # shared root means resultant zero
    assert resultant(f, Poly.from_ints(QQ, [-2, 0, 1])) == QQ.zero


def test_poly_divmod_and_gcd():
    F = FiniteField(7)
    f = Poly.from_ints(F, [1, 2, 3, 1])
    g = Poly.from_ints(F, [2, 1])
    q, r = divmod(f, g)
    assert q * g + r == f
    a = Poly.from_ints(F, [-1, 1]) * Poly.from_ints(F, [3, 1])
    b = Poly.from_ints(F, [-1, 1]) * Poly.from_ints(F, [5, 1])
    assert gcd(a, b) == Poly.from_ints(F, [-1, 1])


def test_rational_polynomial_kernels_match_fraction_reference():
    """Over Q, pt_mul and pt_divmod (integer numerators, pseudo-division),
    gcd (the integer remainder sequence) and squarefree_part return
    exactly the values and reprs of Fraction long division and Euclid, on
    random pairs and on zero operands, len(a) < len(b), constant and monic
    divisors, integral coefficients and large denominators."""
    from fractions import Fraction

    import reference as ref
    from nilmat.fields import pt_divmod, pt_mul

    rng = random.Random(11)

    def poly(length, num=9, den=12):
        """length coefficients, the last one nonzero."""
        cs = [Fraction(rng.randint(-num, num), rng.randint(1, den)) for _ in range(length)]
        if cs and not cs[-1]:
            cs[-1] = Fraction(num, den)
        return tuple(cs)

    pairs = [(poly(rng.randint(0, 6)), poly(rng.randint(0, 4))) for _ in range(150)]
    pairs += [(poly(5, 10**12, 10**9), poly(3, 10**12, 10**9)) for _ in range(10)]
    pairs += [(poly(2), poly(5)), (poly(4), (Fraction(-7, 3),)), (poly(5), (Fraction(2), Fraction(0), Fraction(1)))]
    pairs += [((), poly(3)), (poly(3), ()), ((), ()), ((Fraction(4), Fraction(2)), (Fraction(2),))]
    for a, b in pairs:
        got, want = pt_mul(QQ, a, b), ref.poly_mul(a, b)
        assert got == want and repr(got) == repr(want), (a, b)
        if b:
            got, want = pt_divmod(QQ, a, b), ref.poly_divmod(a, b)
            assert got == want and repr(got) == repr(want), (a, b)
        got, want = gcd(Poly(QQ, a), Poly(QQ, b)), ref.poly_gcd(a, b)
        assert got.coeffs == want and repr(got.coeffs) == repr(want), (a, b)
        if len(a) > 1:
            f = ref.poly_mul(ref.poly_mul(a, a), b or (Fraction(1),))
            got, want = squarefree_part(Poly(QQ, f)).coeffs, ref.squarefree_part(f)
            assert got == want and repr(got) == repr(want), f


PRS_FIELDS = [
    NumberField((-2, 0, 1)),
    NumberField((1, 0, 1)),
    NumberField((-2, -1, 0, 1)),
]


@pytest.mark.parametrize("field", PRS_FIELDS, ids=lambda f: f.name())
def test_remainder_sequence_gcd_matches_euclid(field):
    """Over Q(sqrt2), Q(i) and a cubic field, pt_gcd's primitive
    remainder sequence returns exactly the values and reprs of Euclid's
    monic gcd, on random polynomials with a planted repeated factor, on
    coprime and equal pairs, constants, zero operands and a divisor of
    the other operand."""
    import reference as ref
    from nilmat.fields import pt_gcd, pt_mul

    rng = random.Random(17)

    def poly(degree):
        cs = [field.random_element(rng) for _ in range(degree + 1)]
        while field.is_zero(cs[-1]):
            cs[-1] = field.random_element(rng)
        return tuple(cs)

    pairs = []
    for _ in range(25):
        g = poly(rng.randint(0, 2))
        pairs.append((pt_mul(field, pt_mul(field, g, g), poly(rng.randint(0, 2))), pt_mul(field, g, poly(rng.randint(0, 2)))))
    a, b = poly(3), poly(2)
    pairs += [(a, b), (a, a), (a, pt_mul(field, a, b)), (a, (field.from_int(3),)), ((), a), (a, ()), ((), ())]
    for a, b in pairs:
        got, want = pt_gcd(field, a, b), ref.euclid_gcd(field, a, b)
        assert got == want and repr(got) == repr(want), (a, b)


def test_squarefree_part_over_a_number_field_inverts_once(monkeypatch):
    """The squarefree part of a characteristic polynomial over Q(sqrt2)
    costs at most one NumberField inverse: the one that makes the last
    remainder monic; dividing by the monic gcd inverts nothing."""
    from nilmat.linalg import Matrix, charpoly

    K = NumberField((-2, 0, 1))
    s2, o, z = K.parse(["0", "1"]), K.one, K.zero
    mats = [
        Matrix.make(K, [[s2, z], [z, s2]]),
        Matrix.make(K, [[s2, o], [z, s2]]),
        Matrix.make(K, [[s2, o, z], [z, s2, z], [z, z, o]]),
        Matrix.from_ints(K, [[0, -1], [1, 0]]),
        Matrix.from_ints(K, [[1, 1], [0, 1]]),
    ]
    inv, calls = NumberField.inv, []

    def counting(self, a):
        calls.append(a)
        return inv(self, a)

    for m in mats:
        chi = charpoly(m)
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(NumberField, "inv", counting)
            fstar = squarefree_part(chi)
        assert len(calls) <= 1, m
        assert (chi % fstar).is_zero() and gcd(fstar, fstar.derivative()).degree == 0
