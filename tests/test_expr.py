import pytest
from hypothesis import given
from hypothesis import strategies as st

from intcomplexity.expr import (
    ONE,
    add,
    canonicalize,
    infix,
    mul,
    one,
    postfix_emit,
    postfix_parse,
)


def tree_strategy(depth: int = 3):
    # A sum's children must not be sums (add would merge them), so they are
    # drawn from One and the products one level down.
    tree = non_sum = st.just(ONE)
    for _ in range(depth):
        sums = st.lists(non_sum, min_size=2, max_size=3).map(add)
        prods = st.lists(sums, min_size=2, max_size=3).map(mul)
        tree = st.one_of(st.just(ONE), sums, prods)
        non_sum = st.one_of(st.just(ONE), prods)
    return tree


def test_one_properties():
    assert one() is ONE
    assert (ONE.value, ONE.ones, ONE.height) == (1, 1, 0)


def test_sum_merges_and_sorts():
    t = add((add((ONE, ONE)), ONE))
    assert t.op == "+"
    assert len(t.children) == 3
    assert (t.value, t.ones, t.height) == (3, 3, 1)
    assert repr(t) == "ExprTree('1+1+1', value=3, ones=3, height=1)"


def test_product_merges():
    two = add((ONE, ONE))
    t = mul((mul((two, two)), two))
    assert t.op == "*"
    assert len(t.children) == 3
    assert (t.value, t.ones, t.height) == (8, 6, 2)


def test_product_by_one_rejected():
    with pytest.raises(ValueError):
        mul((ONE, add((ONE, ONE))))


def test_arity_validation():
    with pytest.raises(ValueError):
        add((ONE,))
    with pytest.raises(ValueError):
        mul((add((ONE, ONE)),))


def test_children_sorted_commutative():
    two = add((ONE, ONE))
    three = add((ONE, ONE, ONE))
    assert mul((three, two)) == mul((two, three))
    assert add((three, two)) == add((two, three))


def test_postfix_emit_example():
    two = add((ONE, ONE))
    three = add((ONE, ONE, ONE))
    assert postfix_emit(mul((two, three))) == "11+11+1+*"


def test_postfix_parse_canonicalizes():
    assert postfix_parse("1") is ONE
    assert postfix_parse("11+1+11+*") == postfix_parse("11+11+1+*")


@pytest.mark.parametrize("bad", ["", "11", "+", "1+", "11+1", "12+", "11*"])
def test_postfix_parse_errors(bad):
    with pytest.raises(ValueError):
        postfix_parse(bad)


def test_infix_rendering():
    two = add((ONE, ONE))
    three = add((ONE, ONE, ONE))
    assert infix(mul((two, three))) == "(1+1)*(1+1+1)"
    assert infix(add((ONE, mul((two, three))))) == "1+(1+1)*(1+1+1)"


@given(tree_strategy())
def test_roundtrip(t):
    assert postfix_parse(postfix_emit(t)) == t


@given(tree_strategy())
def test_canonicalize_idempotent(t):
    c1 = canonicalize(t)
    assert c1 == t
    assert (c1.value, c1.ones, c1.height) == (t.value, t.ones, t.height)


@given(tree_strategy())
def test_rebuild_from_reversed_children(t):
    def rebuild(node):
        if node.op == "1":
            return ONE
        kids = [rebuild(c) for c in reversed(node.children)]
        return add(kids) if node.op == "+" else mul(kids)

    assert rebuild(t) == t
