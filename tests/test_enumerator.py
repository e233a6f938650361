import pytest

from intcomplexity.enumerator import (
    CapExceededError,
    default_ones_cap,
    oracle_complexity,
    oracle_table,
)
from intcomplexity.expr import ONE, add, canonicalize, mul, postfix_emit


def test_one():
    res = oracle_complexity(1)
    assert res.complexity == 1
    assert res.shortest == [ONE]
    assert res.min_height == 0


def test_eight():
    res = oracle_complexity(8)
    assert res.complexity == 6
    two = add((ONE, ONE))
    assert mul((two, two, two)) in res.shortest
    assert res.min_height == 2


def test_fourteen():
    res = oracle_complexity(14)
    assert res.complexity == 8
    assert res.min_height == 4


@pytest.mark.parametrize("n,rank", [(7, 3), (11, 3), (13, 3), (10, 2), (5, 1)])
def test_known_ranks(n, rank):
    assert oracle_complexity(n).min_height == rank


def test_trees_are_valid_and_distinct():
    for n in range(1, 61):
        res = oracle_complexity(n)
        assert len(set(res.shortest)) == len(res.shortest)
        for t in res.shortest:
            assert t.value == n
            assert t.ones == res.complexity
        assert res.min_height == min(t.height for t in res.shortest)


def test_recanonicalization_fixed_point():
    # rebuilding every tree through the constructors changes nothing:
    # the generated set is already the canonical quotient
    for n in (12, 23, 30, 46):
        res = oracle_complexity(n)
        rebuilt = {canonicalize(t) for t in res.shortest}
        assert rebuilt == set(res.shortest)


def test_postfix_of_generated_trees_distinct():
    res = oracle_complexity(24)
    emitted = [postfix_emit(t) for t in res.shortest]
    assert len(set(emitted)) == len(emitted)


def test_cap_exceeded():
    with pytest.raises(CapExceededError):
        oracle_complexity(100, ones_cap=5)


def test_default_cap_suffices():
    for n in (1, 2, 47, 100):
        res = oracle_complexity(n, ones_cap=default_ones_cap(n))
        assert res.complexity <= default_ones_cap(n)


def test_domain_error():
    with pytest.raises(ValueError):
        oracle_complexity(0)


def test_oracle_table_matches_single_calls():
    tab = oracle_table(80)
    for n in range(1, 81):
        res = oracle_complexity(n)
        assert tab.value(n) == res.complexity
        assert tab.rank_of(n) == res.min_height
