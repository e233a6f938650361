import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from intcomplexity.primality import divisors, factorize, is_prime, primes_up_to


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def test_small_range_agrees_with_trial_division():
    for n in range(0, 20_000):
        assert is_prime(n) == trial_is_prime(n), n


def test_carmichael_and_strong_pseudoprimes():
    for n in (561, 1105, 1729, 2047, 3215031751, 3825123056546413051):
        assert not is_prime(n)


def test_large_known_primes():
    assert is_prime(540539)  # least value of complexity 44
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


@given(st.integers(2, 10**9))
def test_factorize_reassembles(n):
    with pytest.raises(ValueError, match="n >= 2"):
        factorize(1)
    fs = factorize(n)
    prod = 1
    for p in fs:
        prod *= p
        assert is_prime(p)
    assert prod == n
    assert fs == sorted(fs)


def test_divisors_are_every_divisor_ascending():
    for n in range(1, 3001):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n
    # past the table: the trial-division pairs d <= sqrt(n) and n // d, for
    # a prime, a prime square, a 2^a * 3^b and seeded n up to 10^12
    rng = random.Random(1203)
    for n in (999_999_999_989, 999_983**2, 2**20 * 3**12,
              *(rng.randrange(2, 10**12) for _ in range(10))):
        low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
        assert divisors(n) == sorted({*low, *(n // d for d in low)}), n


def test_primes_up_to():
    assert primes_up_to(0) == primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(10**5) == [n for n in range(10**5 + 1) if trial_is_prime(n)]

