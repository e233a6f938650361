"""Canonical expression trees over the basis {1, +, *}.

A tree is One, a Sum, or a Product.  Canonical form merges nested sums
into sums and nested products into products (both operations are
associative), forbids multiplying by One, and keeps children sorted, so
each equivalence class of expressions under commutativity/associativity
has exactly one representative.  Postfix emit/parse round-trip the
canonical form; parsing re-canonicalizes.
"""

from __future__ import annotations

from collections.abc import Iterable

_ONE_OP = "1"
_SUM_OP = "+"
_PROD_OP = "*"


class ExprTree:
    __slots__ = ("op", "children", "value", "ones", "height", "_key", "_hash")

    def __init__(self, op: str, children: tuple["ExprTree", ...],
                 value: int, ones: int, height: int, key: tuple):
        self.op = op
        self.children = children
        self.value = value
        self.ones = ones
        self.height = height
        self._key = key
        self._hash = hash(key)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExprTree) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"ExprTree({infix(self)!r}, value={self.value}, ones={self.ones}, height={self.height})"

    def sort_key(self):
        return (self.value, self.ones, self._key)


ONE = ExprTree(_ONE_OP, (), 1, 1, 0, (_ONE_OP,))


def one() -> ExprTree:
    return ONE


def _build(op: str, parts: list[ExprTree]) -> ExprTree:
    parts.sort(key=ExprTree.sort_key)
    kids = tuple(parts)
    ones = sum(t.ones for t in kids)
    height = 1 + max(t.height for t in kids)
    if op == _SUM_OP:
        value = sum(t.value for t in kids)
    else:
        value = 1
        for t in kids:
            value *= t.value
    key = (op,) + tuple(t._key for t in kids)
    return ExprTree(op, kids, value, ones, height, key)


def add(parts: Iterable[ExprTree]) -> ExprTree:
    """Canonical sum: nested sums are merged, children sorted."""
    flat: list[ExprTree] = []
    for t in parts:
        if t.op == _SUM_OP:
            flat.extend(t.children)
        else:
            flat.append(t)
    if len(flat) < 2:
        raise ValueError("a sum needs at least two parts")
    return _build(_SUM_OP, flat)


def mul(factors: Iterable[ExprTree]) -> ExprTree:
    """Canonical product: nested products merged, One factors rejected."""
    flat: list[ExprTree] = []
    for t in factors:
        if t.op == _PROD_OP:
            flat.extend(t.children)
        else:
            flat.append(t)
    if any(t.op == _ONE_OP for t in flat):
        raise ValueError("multiplication by one is not canonical")
    if len(flat) < 2:
        raise ValueError("a product needs at least two factors")
    return _build(_PROD_OP, flat)


def canonicalize(t: ExprTree) -> ExprTree:
    """Rebuild a tree through the canonical constructors (idempotent)."""
    if t.op == _ONE_OP:
        return ONE
    kids = [canonicalize(c) for c in t.children]
    return add(kids) if t.op == _SUM_OP else mul(kids)


def postfix_emit(t: ExprTree) -> str:
    """Reverse Polish rendering using the symbols 1, +, *."""
    out: list[str] = []

    def walk(node: ExprTree) -> None:
        if node.op == _ONE_OP:
            out.append(_ONE_OP)
            return
        walk(node.children[0])
        for child in node.children[1:]:
            walk(child)
            out.append(node.op)

    walk(t)
    return "".join(out)


def postfix_parse(s: str) -> ExprTree:
    """Parse a postfix program over {1, +, *} into a canonical tree.

    Nested same-operation applications merge and children are sorted, so
    distinct postfix spellings of the same expression parse equal.
    Malformed input (operator underflow, leftover operands, foreign
    symbols, multiplication by one) raises ValueError.
    """
    stack: list[ExprTree] = []
    for pos, ch in enumerate(s):
        if ch == _ONE_OP:
            stack.append(ONE)
        elif ch in (_SUM_OP, _PROD_OP):
            if len(stack) < 2:
                raise ValueError(f"operator {ch!r} at position {pos} lacks two operands")
            b = stack.pop()
            a = stack.pop()
            stack.append(add((a, b)) if ch == _SUM_OP else mul((a, b)))
        else:
            raise ValueError(f"unexpected symbol {ch!r} at position {pos}")
    if not stack:
        raise ValueError("empty postfix program")
    if len(stack) != 1:
        raise ValueError(f"{len(stack)} values left on stack, expected 1")
    return stack[0]


def infix(t: ExprTree) -> str:
    """Human-readable rendering, parenthesizing sums inside products."""
    if t.op == _ONE_OP:
        return "1"
    if t.op == _SUM_OP:
        return "+".join(infix(c) for c in t.children)
    rendered = []
    for c in t.children:
        body = infix(c)
        rendered.append(f"({body})" if c.op == _SUM_OP else body)
    return "*".join(rendered)
