"""Elementary integer number theory: primality and factoring.

Deterministic throughout; Miller-Rabin uses the first thirteen primes as
bases, which is exact for every integer below 3.3e24 (the least strong
pseudoprime to all of them, psi_13, exceeds that bound), far beyond
anything this package meets.  The same primes serve as trial divisors
first, so each base is prime to n when the strong test runs.
"""

from math import gcd

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def odd_primes(start: int = 3):
    """Yield odd primes >= start in increasing order."""
    n = max(3, start)
    if n % 2 == 0:
        n += 1
    while True:
        if is_prime(n):
            yield n
        n += 2


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    x0 = 2
    c = 1
    while True:
        x = y = x0
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def factorint(n: int) -> dict:
    """Prime factorization of n >= 1 as {prime: multiplicity}."""
    if n < 1:
        raise ValueError("factorint expects a positive integer")
    out: dict = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = 0
        i = 49
        while i * i <= m and i < 10**4:
            if m % i == 0:
                d = i
                break
            i += 2
        if not d:
            d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))
