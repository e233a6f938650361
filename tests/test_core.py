import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intcomplexity.core import (
    ComplexityTable,
    addend_bound,
    blocks,
    defect,
    integer_logarithm,
    is_power_of_3,
    log_complexity,
    lower_bound,
    max_expressible,
    mersenne_upper_bound,
    second_max_expressible,
    upper_bound,
)


def naive_lower_bound(n: int) -> int:
    # least c with 3^c >= n^3, grown by repeated multiplication
    cube = n**3
    c, p = 0, 1
    while p < cube:
        p *= 3
        c += 1
    return max(c, 1)


def test_lower_bound_examples():
    assert lower_bound(3) == 3
    assert lower_bound(81) == 12
    assert lower_bound(1439) == 20


def test_lower_bound_exact_at_powers_of_three():
    for b in range(1, 40):
        assert lower_bound(3**b) == 3 * b
        assert lower_bound(3**b + 1) == 3 * b + 1


@given(st.integers(2, 10**12))
def test_lower_bound_matches_naive(n):
    assert lower_bound(n) == naive_lower_bound(n)


@given(st.integers(2, 10**9))
def test_bounds_order(n):
    assert lower_bound(n) <= upper_bound(n) + 1e-9


def test_lower_bound_domain():
    with pytest.raises(ValueError):
        lower_bound(1)
    with pytest.raises(ValueError, match="upper_bound requires n >= 2"):
        upper_bound(1)


def test_max_expressible_values():
    assert max_expressible(1) == 1
    assert max_expressible(2) == 2
    assert max_expressible(3) == 3
    assert max_expressible(4) == 4
    assert max_expressible(5) == 6
    assert max_expressible(8) == 18
    assert max_expressible(11) == 54
    with pytest.raises(ValueError):
        max_expressible(0)


def test_max_expressible_monotone():
    vals = [max_expressible(k) for k in range(1, 200)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


@given(st.integers(1, 60), st.integers(1, 60))
def test_max_expressible_supermultiplicative(x, y):
    assert max_expressible(x) * max_expressible(y) <= max_expressible(x + y)


def test_second_max_expressible():
    assert second_max_expressible(8) == 16
    assert second_max_expressible(9) == 24
    assert second_max_expressible(10) == 32
    with pytest.raises(ValueError):
        second_max_expressible(7)


def test_integer_logarithm():
    assert integer_logarithm(6) == 5
    assert integer_logarithm(12) == 7
    assert integer_logarithm(125) == 15
    assert integer_logarithm(97) == 97
    with pytest.raises(ValueError):
        integer_logarithm(1)


def test_log_complexity_values():
    assert abs(log_complexity(2, 2) - 3.1699) < 5e-4
    assert log_complexity(3, 3) == pytest.approx(3.0)
    assert abs(log_complexity(1439, 26) - 3.928) < 5e-4
    with pytest.raises(ValueError, match="log_complexity requires n >= 2"):
        log_complexity(1, 1)


def test_defect_values():
    assert defect(3, 3) == pytest.approx(0.0)
    assert defect(1, 1) == pytest.approx(1.0)
    assert abs(defect(2, 2) - 0.107) < 1e-3
    with pytest.raises(ValueError, match="defect requires n >= 1"):
        defect(0, 1)


def naive_addend_bound(n: int, c_upper: int) -> int:
    # the largest a <= n/2 with (n - 2a)^2 >= n^2 - 4y, tried for every a;
    # int64 is exact here, since n <= 10**6 keeps each value below 2**41
    y = max_expressible(c_upper)
    if n * n < 4 * y:
        return n // 2
    a = np.arange(n // 2 + 1, dtype=np.int64)
    return int(np.flatnonzero((n - 2 * a) ** 2 >= n * n - 4 * y).max(initial=0))


def test_addend_bound_examples():
    # discriminant positive here: the bound is tight, not the clamp
    assert addend_bound(10, 7) == naive_addend_bound(10, 7) == 1
    # true clamp case: E(10) = 36 makes the discriminant negative
    assert addend_bound(10, 10) == 5
    assert addend_bound(1000, 30) == naive_addend_bound(1000, 30) == 63
    assert addend_bound(1000, 30) <= int(2 * 1000**0.585) + 1
    c29 = int(upper_bound(29))
    assert addend_bound(29, c29) <= int(2 * 29**0.585) + 1
    with pytest.raises(ValueError):
        addend_bound(1, 5)


@given(st.integers(2, 10**6), st.integers(1, 60))
def test_addend_bound_matches_naive(n, c):
    assert addend_bound(n, c) == naive_addend_bound(n, c) <= n // 2


@given(st.integers(1, 2**40), st.integers(-5, 2**24), st.integers(0, 2**26))
def test_blocks_geometry(lo, span, cut):
    last = max(lo + span, 0)
    cut = cut and max(cut, span // 4096 + 1)  # at most 4096 cuts, to keep the test short
    got = list(blocks(lo, last, cut))
    if lo > last:
        assert got == []
        return
    # ascending, without a gap, from lo to last
    assert got[0][0] == lo and got[-1][1] == last + 1
    assert all(a[1] == b[0] for a, b in zip(got, got[1:]))
    width = max(1 << 16, 32 * math.isqrt(last))
    assert all(a < b <= min(2 * a, a + width) for a, b in got)
    ends = {b - 1 for _, b in got}
    assert not cut or ends.issuperset(range(-(-lo // cut) * cut, last, cut))


def test_blocks_examples():
    assert list(blocks(2, 1)) == list(blocks(5, 4, 3)) == []
    assert list(blocks(1, 10)) == [(1, 2), (2, 4), (4, 8), (8, 11)]
    assert list(blocks(2, 10, 5)) == [(2, 4), (4, 6), (6, 11)]  # 5 ends a block, 10 is the last
    assert list(blocks(2**20, 2**21))[:2] == [(2**20, 2**20 + 2**16),
                                               (2**20 + 2**16, 2**20 + 2**17)]


def test_blocks_are_generated_one_at_a_time():
    # a checkpoint at every n makes 10^5 blocks here, which a list of them
    # would hold (about 9.6 MB) beside the table
    tracemalloc.start()
    try:
        assert max(hi - lo for lo, hi in blocks(2, 10**5, 1)) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_mersenne_upper_bound():
    assert mersenne_upper_bound(2) == 3
    assert mersenne_upper_bound(10) == 22  # excess bound 2 over 2n
    assert mersenne_upper_bound(15) - 30 == 4
    assert mersenne_upper_bound(32) == 67  # excess bound 3
    with pytest.raises(ValueError):
        mersenne_upper_bound(1)


def test_is_power_of_3():
    powers = {3**b for b in range(0, 20)}
    for n in range(1, 1000):
        assert is_power_of_3(n) == (n in powers)
    assert not is_power_of_3(0)


# -- table invariants ----------------------------------------------------


def test_table_validation():
    with pytest.raises(ValueError):
        ComplexityTable(limit=2, complexity=b"\x00\x01")
    with pytest.raises(ValueError):
        ComplexityTable(limit=2, complexity=b"\x00\x02\x02")
    with pytest.raises(ValueError, match="limit must be >= 1"):
        ComplexityTable(limit=0, complexity=b"\x00")
    with pytest.raises(ValueError, match="rank array length"):
        ComplexityTable(limit=2, complexity=b"\x00\x01\x02", rank=b"\x00\x00")


def test_table_cannot_be_assigned(sieve_5k):
    for name in ("limit", "complexity", "rank", "other"):
        with pytest.raises(AttributeError):
            setattr(sieve_5k, name, None)
        with pytest.raises(AttributeError):
            delattr(sieve_5k, name)
    assert sieve_5k.limit == 5000 and sieve_5k.has_ranks


def test_table_equality(sieve_5k):
    same = ComplexityTable(5000, bytes(sieve_5k.complexity), bytes(sieve_5k.rank))
    assert same == sieve_5k and not same != sieve_5k
    assert ComplexityTable(limit=5000, complexity=sieve_5k.complexity) != sieve_5k
    assert ComplexityTable(limit=4999, complexity=sieve_5k.complexity[:5000]) != sieve_5k
    assert sieve_5k != (5000, sieve_5k.complexity, sieve_5k.rank)


def test_table_accessors(sieve_5k):
    assert sieve_5k.value(1) == 1
    assert len(sieve_5k) == 5000
    assert sieve_5k.has_ranks
    with pytest.raises(ValueError):
        sieve_5k.value(0)
    with pytest.raises(ValueError):
        sieve_5k.value(5001)
    with pytest.raises(ValueError, match=r"^n = 5001 outside table range \[1, 5000\]$"):
        sieve_5k.rank_of(5001)
    with pytest.raises(ValueError, match="without ranks"):
        ComplexityTable(limit=5000, complexity=sieve_5k.complexity).rank_of(1)


@settings(max_examples=300)
@given(st.integers(2, 5000))
def test_table_bounds_invariant(sieve_5k, n):
    c = sieve_5k.value(n)
    assert lower_bound(n) <= c <= upper_bound(n)
    assert c <= sieve_5k.value(n - 1) + 1
    assert n <= max_expressible(c)


@settings(max_examples=200)
@given(st.integers(2, 70), st.integers(2, 70))
def test_table_submultiplicative(sieve_5k, a, b):
    assert sieve_5k.value(a * b) <= sieve_5k.value(a) + sieve_5k.value(b)


def test_rank_one_exactly_two_to_five(sieve_5k):
    ones = [n for n in range(1, 5001) if sieve_5k.rank_of(n) == 1]
    assert ones == [2, 3, 4, 5]
    assert sieve_5k.rank_of(1) == 0


def test_defect_zero_iff_power_of_three(sieve_5k):
    for n in range(2, 5001):
        d = defect(n, sieve_5k.value(n))
        assert d >= -1e-9
        assert (abs(d) < 1e-9) == is_power_of_3(n)


def test_lowest_complexity_at_powers_of_three(sieve_5k):
    b = 1
    while 3**b <= 5000:
        assert sieve_5k.value(3**b) == 3 * b == lower_bound(3**b)
        b += 1
