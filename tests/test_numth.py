"""Primality and integer factorization."""

import math

import pytest

from nilmat.fields import FiniteField
from nilmat.numth import factorint, is_prime

# psi_12: the least strong pseudoprime to every prime base up to 37
PSI_12 = 318665857834031151167461


def _trial_division_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**4) if is_prime(n) != _trial_division_prime(n)] == []


def test_strong_pseudoprime_to_bases_up_to_37_is_composite():
    assert not is_prime(PSI_12)
    with pytest.raises(ValueError):
        FiniteField(PSI_12)


@pytest.mark.parametrize(
    "factors",
    [
        {10**9 + 7: 1, 10**9 + 9: 1},
        {2**31 - 1: 1, 2**61 - 1: 1},
        {3: 5, 10007: 2, 1000003: 1},
    ],
    ids=["twin-primes-1e9", "mersenne-31-61", "3^5*10007^2*1000003"],
)
def test_factorint_beyond_trial_division(factors):
    """Factors past the trial-division bound come from Pollard's rho."""
    n = math.prod(p**e for p, e in factors.items())
    got = factorint(n)
    assert got == factors
    assert math.prod(p**e for p, e in got.items()) == n and all(is_prime(p) for p in got)
