"""Deterministic primality testing and small prime sieves (64-bit range)."""

from __future__ import annotations

import itertools
import math
from collections import Counter

# strong-pseudoprime bases that decide primality for all n < 3.3e24,
# comfortably covering 64-bit inputs
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = frozenset(_MR_BASES)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n in _SMALL_PRIMES:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, ascending (a bytearray sieve)."""
    n = max(n, 1)
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes((n - p * p) // p + 1)
    return list(itertools.compress(range(n + 1), sieve))


def factorize(n: int) -> list[int]:
    """Prime factors of n with multiplicity, ascending (trial division)."""
    if n < 2:
        raise ValueError(f"factorize requires n >= 2, got {n}")
    out: list[int] = []
    m = n
    d = 2
    while d * d <= m:
        while m % d == 0:
            out.append(d)
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


def divisors(n: int) -> list[int]:
    """Every divisor of n >= 1, ascending, from ``factorize``."""
    divs = [1]
    for p, e in Counter(factorize(n) if n > 1 else ()).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)
