"""Field arithmetic: axioms, reduction, parsing."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilmat.errors import DenominatorDivisible, ParseError
from nilmat.fields import (
    QQ,
    FiniteField,
    FunctionField,
    NumberField,
    _power_reductions,
    field_from_json,
    find_irreducible_modulus,
    reduce_mod,
)
from reference import gf_mul, power_reductions

rationals = st.fractions(max_denominator=40)


def all_fields():
    return [
        QQ,
        FiniteField(5),
        FiniteField(2),
        FiniteField(3, 2),
        FiniteField(5, 2),
        NumberField((-2, 0, 1)),
        FunctionField(QQ),
        FunctionField(FiniteField(5)),
    ]


@pytest.mark.parametrize("field", all_fields(), ids=lambda f: f.name())
def test_field_axioms(field):
    import random

    rng = random.Random(7)
    for _ in range(60):
        a = field.random_element(rng)
        b = field.random_element(rng)
        c = field.random_element(rng)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.neg(a)) == field.zero
        if not field.is_zero(a):
            assert field.mul(a, field.inv(a)) == field.one
        assert field.mul(a, field.one) == a
        assert field.add(a, field.zero) == a


def test_reduce_mod_examples():
    assert reduce_mod(Fraction(1, 2), 5) == 3
    assert reduce_mod(Fraction(0), 7) == 0
    with pytest.raises(DenominatorDivisible):
        reduce_mod(Fraction(1, 5), 5)


@given(
    st.fractions(max_denominator=30),
    st.fractions(max_denominator=30),
)
@settings(max_examples=120, deadline=None)
def test_reduce_mod_is_a_ring_homomorphism(x, y):
    p = 7
    if x.denominator % p == 0 or y.denominator % p == 0:
        return
    assert reduce_mod(x + y, p) == (reduce_mod(x, p) + reduce_mod(y, p)) % p
    assert reduce_mod(x * y, p) == (reduce_mod(x, p) * reduce_mod(y, p)) % p


def test_finite_field_tables_match_slow_path():
    """For every q <= 64 the tables built from one discrete-log pass hold
    every product and inverse of the slow digit arithmetic."""
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        for l in range(1, 7):
            if p**l > 64:
                break
            F = FiniteField(p, l)
            q = F.q
            assert F._mul_table == [[F._mul_slow(a, b) for b in range(q)] for a in range(q)], F
            assert all(F._mul_slow(a, F._inv_table[a]) == 1 for a in range(1, q)), F
            assert all(F.mul(a, b) == F._mul_slow(a, b) for a in range(q) for b in range(q))


def test_power_reductions_match_the_recurrence():
    """The one reduction table of GF(p^l) and Q(a) against the
    shift-and-carry recurrence: on every seeded modulus for p <= 7, l <= 6
    and seeds 0-2, and on number-field minimal polynomials."""
    for p in (2, 3, 5, 7):
        for l in range(2, 7):
            for seed in range(3):
                modulus = find_irreducible_modulus(p, l, seed)
                assert _power_reductions(modulus, p) == power_reductions(modulus, p), (p, l, seed)
    for mp in ([-2, 0, 1], [1, 0, 1], [-2, 0, 0, 1], [1, 1, 1, 1, 1]):
        assert _power_reductions(mp) == power_reductions(mp) == NumberField(mp)._apow, mp


def test_slow_product_matches_schoolbook_without_tables():
    """Fields past the table bound multiply by the shared fold: every
    product of GF(5^3), and sampled ones of GF(101^2), against the
    schoolbook digit loop; inverses come from `Field.pow`."""
    F = FiniteField(5, 3)
    assert F._mul_table is None
    assert all(F.mul(a, b) == gf_mul(F, a, b) for a in range(F.q) for b in range(F.q))
    F = FiniteField(101, 2)
    assert F._mul_table is None
    rng = random.Random(0)
    sample = [0, 1, 100, 101, F.q - 1] + [rng.randrange(F.q) for _ in range(60)]
    assert all(F.mul(a, b) == gf_mul(F, a, b) for a in sample for b in sample)
    assert all(F.mul(a, F.inv(a)) == F.one for a in sample if a)


def test_finite_field_extension_modulus_is_recorded_and_irreducible():
    F = FiniteField(3, 2)
    assert F.modulus is not None and len(F.modulus) == 3 and F.modulus[-1] == 1
    # same seed, same modulus
    assert FiniteField(3, 2).modulus == F.modulus
    d = F.to_json()
    assert d["kind"] == "GF" and "modulus" in d


def test_extension_moduli_are_tested_over_one_prime_field(monkeypatch):
    """A given modulus and a seeded search test irreducibility over one
    memoized GF(p), built once per p, and a reducible modulus is still
    rejected."""
    from nilmat import poly

    seen, is_irreducible = [], poly.is_irreducible

    def recording(f):
        seen.append(f.field)
        return is_irreducible(f)

    monkeypatch.setattr(poly, "is_irreducible", recording)
    F = FiniteField(61, 2)
    assert FiniteField(61, 2, F.modulus) == F and FiniteField(61, 3).q == 61**3
    with pytest.raises(ValueError, match="not irreducible"):
        FiniteField(61, 2, (1, 0, 1))  # X^2 + 1 has the roots +-11, as 11^2 = -1
    assert len(seen) >= 4 and all(b is seen[0] for b in seen) and seen[0] == FiniteField(61)


def test_finite_field_frobenius_and_order():
    F = FiniteField(5, 2)
    g = F.multiplicative_generator()
    seen = set()
    x = F.one
    for _ in range(F.q - 1):
        x = F.mul(x, g)
        seen.add(x)
    assert len(seen) == F.q - 1
    w = F.element_of_order(8)
    assert F.pow(w, 8) == F.one and F.pow(w, 4) != F.one


def test_number_field_arithmetic():
    nf = NumberField((-2, 0, 1))  # sqrt(2)
    a = nf.parse(["0", "1"])
    assert nf.mul(a, a) == nf.from_int(2)
    x = nf.parse(["1/2", "3"])
    assert nf.mul(x, nf.inv(x)) == nf.one
    assert nf.denominator_clearing(x) == 2


def test_function_field_arithmetic():
    ff = FunctionField(QQ)
    x = ff.x()
    inv = ff.inv(x)
    assert ff.mul(x, inv) == ff.one
    two_x = ff.add(x, x)
    assert two_x == ff.mul(ff.from_int(2), x)
    e = ff.parse({"num": ["1", "1"], "den": ["2"]})  # (1 + X)/2
    assert e == ff.mul(ff.add(ff.one, x), ff.inv(ff.from_int(2)))


def test_field_descriptor_round_trip():
    for f in all_fields():
        g = field_from_json(f.to_json())
        assert g == f


def test_entry_parse_errors():
    with pytest.raises(ParseError):
        QQ.parse("1/0")
    with pytest.raises(ParseError):
        QQ.parse(7)
    with pytest.raises(ParseError):
        FiniteField(5).parse("x")
    with pytest.raises(ParseError):
        field_from_json({"kind": "NF", "minpoly": ["-1", "0", "1"]})  # reducible
    with pytest.raises(ParseError):
        field_from_json({"kind": "wat"})


def test_descriptors_of_one_field_share_one_object():
    """field_from_json builds each field once per process: spellings of one
    descriptor give the same object, a GF(p^l) modulus drawn from the seed
    keeps seeds apart, and a descriptor that names no field raises on every
    call."""
    gf25 = {"kind": "GF", "p": 5, "l": 2, "modulus": [2, 1, 1]}
    F = field_from_json(gf25)
    assert F == FiniteField(5, 2, (2, 1, 1))
    assert field_from_json({"modulus": [2, 1, 1], "l": 2, "p": 5, "kind": "GF"}) is F
    assert field_from_json(dict(gf25, p="5")) is F
    assert field_from_json({"kind": "GF", "p": "5"}) is field_from_json({"kind": "GF", "p": 5, "l": 1})
    ff = field_from_json({"kind": "FF", "base": {"kind": "GF", "p": 7}})
    assert ff.base is field_from_json({"kind": "GF", "p": 7})
    assert field_from_json({"base": {"p": 7, "kind": "GF"}, "kind": "FF"}) is ff
    # seeds 1 and 3 draw the modulus X^2 + X + 2, seed 0 draws X^2 + 1
    gf9 = {"kind": "GF", "p": 3, "l": 2}
    at0, at1 = field_from_json(gf9), field_from_json(gf9, seed=1)
    assert at0.modulus == (1, 0, 1) and at1.modulus == (2, 1, 1)
    assert field_from_json(gf9, seed=0) is at0 and field_from_json(gf9, seed=3) is at1
    for bad in ({"kind": "wat"}, {"kind": "NF", "minpoly": ["-1", "0", "1"]},
                {"kind": "GF", "p": 3, "l": 2, "modulus": "ab"}):
        for _ in range(2):
            with pytest.raises(ParseError):
                field_from_json(bad)
    # JSON cannot encode a set, so this descriptor is built on each call
    assert field_from_json({"kind": "GF", "p": 5, "note": {1}}) == FiniteField(5)


def test_entry_format_round_trip():
    import random

    rng = random.Random(3)
    for f in all_fields():
        for _ in range(20):
            a = f.random_element(rng)
            assert f.parse(f.format(a)) == a


def test_field_equality_and_hash_follow_the_descriptor():
    """Separately built fields with one descriptor are equal and hash alike;
    a different descriptor is unequal, whatever the kind."""
    pairs = [
        (FiniteField(7), FiniteField(7)),
        (FiniteField(3, 2), FiniteField(3, 2)),
        (NumberField((-2, 0, 1)), NumberField((-2, 0, 1))),
        (FunctionField(FiniteField(5)), FunctionField(FiniteField(5))),
        (FunctionField(QQ), field_from_json({"kind": "FF", "base": {"kind": "Q"}})),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
    distinct = [QQ, FiniteField(7), FiniteField(3, 2), FiniteField(3, 2, (2, 2, 1)),
                NumberField((-2, 0, 1)), NumberField((1, 0, 1)), FunctionField(QQ),
                FunctionField(FiniteField(7))]
    for i, a in enumerate(distinct):
        for j, b in enumerate(distinct):
            assert (a == b) == (i == j)
    assert len(set(distinct)) == len(distinct)


# number fields of degree 2, 2, 3 and 4, each with a unit: 1 + sqrt2, i,
# cbrt2 - 1, and a^-1 = 10a - a^3 for a = sqrt2 + sqrt3
NF_UNITS = [
    ((-2, 0, 1), (1, 1)),
    ((1, 0, 1), (0, 1)),
    ((-2, 0, 0, 1), (-1, 1, 0)),
    ((1, 0, -10, 0, 1), (0, 1, 0, 0)),
]


@pytest.mark.parametrize("minpoly, unit", NF_UNITS, ids=lambda v: str(v))
def test_number_field_kernels_match_fraction_reference(minpoly, unit):
    """NumberField.mul and .inv, on integer numerators over one denominator,
    return exactly the values and reprs of the Fraction schoolbook product
    and the extended-Euclid inverse: on zero, one, integral elements,
    units, large denominators and random elements."""
    import random

    from reference import nf_inv, nf_mul

    K = NumberField(minpoly)
    rng = random.Random(sum(minpoly))
    m = K.degree

    def vec(num, den):
        return tuple(Fraction(num(), den()) for _ in range(m))

    u = tuple(Fraction(c) for c in unit)
    samples = [K.zero, K.one, K.parse(["0", "1"]), u, K.inv(u), K.neg(u), vec(lambda: rng.randint(-9, 9), lambda: 1)]
    samples += [vec(lambda: rng.randint(-10**15, 10**15), lambda: rng.randint(1, 10**12)) for _ in range(3)]
    samples += [K.random_element(rng) for _ in range(6)]
    for a in samples:
        for b in samples:
            got, want = K.mul(a, b), nf_mul(K, a, b)
            assert got == want and repr(got) == repr(want), (a, b)
        if not K.is_zero(a):
            got, want = K.inv(a), nf_inv(K, a)
            assert got == want and repr(got) == repr(want), a
            assert K.mul(a, got) == K.one
    assert K.inv(u) == nf_inv(K, u) and all(c.denominator == 1 for c in K.inv(u))
