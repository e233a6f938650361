"""Exhaustive shortest-expression search by increasing ones count.

The generator walks ones counts k = 1, 2, ... and at each level builds
every value reachable by a canonical expression with exactly k ones:
sums whose parts are One or product-rooted optimal subexpressions, and
products whose factors are sum-rooted optimal subexpressions (a factor
of One is meaningless and nested same-operation nodes merge away).  A
value is settled the first time it appears; that level is its
complexity.  Partial combinations are cut as soon as the remaining
value budget exceeds the largest value expressible with the remaining
ones, so the search stays tractable into the thousands.

Because every subexpression of a shortest expression is itself shortest,
drawing parts and factors only from already-settled optimal forms loses
nothing, and the set of canonical shortest expressions per value is
recovered exactly (expanded to trees on demand).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, namedtuple
from functools import cache
from itertools import combinations_with_replacement, product

from .core import ComplexityTable, max_expressible, upper_bound
from .expr import ExprTree, ONE, add, mul
from .primality import divisors


class CapExceededError(ValueError):
    """The ones budget ran out before the target value was produced."""


class OracleResult(namedtuple("OracleResult", "n complexity shortest min_height")):
    """The complexity of n, every canonical shortest expression of n (a
    list of ``ExprTree``), and the least height among them."""

    __slots__ = ()


def default_ones_cap(n: int) -> int:
    """floor(3*log2 n): always enough ones to express n."""
    return 1 if n < 2 else int(upper_bound(n))


class _Engine:
    def __init__(self, limit: int):
        # sized by the ones that suffice for every value up to the limit,
        # whatever cap a run is given
        self._E = [0] + [max_expressible(k) for k in range(1, default_ones_cap(limit) + 3)]
        # value -> ones of its shortest expressions
        self.ones: dict[int, int] = {1: 1}
        # min height of an optimal non-sum-rooted (One/product) form: sum parts
        self.non_sum_h: dict[int, int] = {1: 0}
        # min height of an optimal non-product-rooted (One/sum) form: factors
        self.non_prod_h: dict[int, int] = {1: 0}
        # per ones count, sorted values usable as sum parts
        self.sum_pool: dict[int, list[int]] = {1: [1]}
        self.missing: list[int] = list(range(2, limit + 1))
        # product searches ask for the divisors of the same values again
        self._divisors = cache(divisors)

    # -- decomposition generators -------------------------------------

    def _sum_decomps(self, V: int, k: int):
        """Multisets of sum parts: values with a non-sum optimal form,
        ones totalling k, values totalling V, at least two parts,
        ordered non-decreasing by (ones, value)."""
        E = self._E
        ones = self.ones
        nsh = self.non_sum_h
        pools = self.sum_pool

        def rec(W: int, r: int, j_min: int, v_min: int, parts: tuple[int, ...]):
            if parts and ones.get(W) == r and W in nsh and (r, W) >= (j_min, v_min):
                yield parts + (W,)
            for j in range(j_min, r):
                pool = pools.get(j)
                if not pool:
                    continue
                hi = W - (r - j)  # leave at least one unit of value per one
                idx = bisect_left(pool, v_min) if j == j_min else 0
                while idx < len(pool):
                    v = pool[idx]
                    if v > hi:
                        break
                    rem = W - v
                    if rem <= E[r - j]:
                        yield from rec(rem, r - j, j, v, parts + (v,))
                    idx += 1

        yield from rec(V, k, 1, 1, ())

    def _prod_decomps(self, V: int, k: int):
        """Multisets of factors >= 2 with a non-product optimal form,
        ones totalling k, product V, at least two factors."""
        E = self._E
        ones = self.ones
        nph = self.non_prod_h

        def rec(W: int, r: int, j_min: int, v_min: int, parts: tuple[int, ...]):
            if parts and W >= 2 and ones.get(W) == r and W in nph and (r, W) >= (j_min, v_min):
                yield parts + (W,)
            half = W // 2
            for d in self._divisors(W)[1:]:  # factors >= 2
                if d > half:
                    break
                j = ones.get(d)
                if j is None or j > r - 2 or d not in nph:
                    continue
                if (j, d) < (j_min, v_min):
                    continue
                rem = W // d
                if rem <= E[r - j]:
                    yield from rec(rem, r - j, j, d, parts + (d,))

        yield from rec(V, k, 2, 2, ())

    # -- main loop -----------------------------------------------------

    def _step(self, k: int) -> None:
        E_k = self._E[k]
        nsh = self.non_sum_h
        nph = self.non_prod_h
        assigned: dict[int, tuple[int | None, int | None]] = {}
        leftover: list[int] = []
        for V in self.missing:
            if V > E_k:
                leftover.append(V)
                continue
            # the least height of a sum-rooted and of a product-rooted form
            sum_h, prod_h = (
                min((1 + max(heights[p] for p in parts) for parts in decomps(V, k)), default=None)
                for decomps, heights in ((self._sum_decomps, nsh), (self._prod_decomps, nph)))
            if sum_h is None and prod_h is None:
                leftover.append(V)
            else:
                assigned[V] = (sum_h, prod_h)
        for V, (sh, ph) in assigned.items():
            self.ones[V] = k
            if sh is not None:
                nph[V] = sh  # sum-rooted forms serve as factors
            if ph is not None:
                nsh[V] = ph  # product-rooted forms serve as sum parts
        spool = sorted(V for V in assigned if V in nsh)
        if spool:
            self.sum_pool[k] = spool
        self.missing = leftover

    def run(self, cap: int, stop_value: int | None = None) -> None:
        """Settle the values of k = 2..cap ones, until stop_value (without
        one, every value up to the limit) has its complexity."""
        k = 1
        while self.missing and stop_value not in self.ones:
            k += 1
            if k > cap:
                # the largest missing value: stop_value itself when there is one
                raise CapExceededError(f"no expression for {self.missing[-1]} within {cap} ones")
            self._step(k)

    def min_height(self, v: int) -> int:
        hs = [h for h in (self.non_sum_h.get(v), self.non_prod_h.get(v)) if h is not None]
        return min(hs)

    # -- tree expansion -------------------------------------------------

    def all_shortest_trees(self, v: int, _memo: dict[int, list[ExprTree]] | None = None) -> list[ExprTree]:
        memo = {} if _memo is None else _memo
        got = memo.get(v)
        if got is not None:
            return got
        if v == 1:
            memo[1] = [ONE]
            return memo[1]
        k = self.ones[v]
        out: list[ExprTree] = []
        for decomps, op, node in ((self._sum_decomps, "+", add), (self._prod_decomps, "*", mul)):
            for parts in decomps(v, k):
                options = []
                for val, cnt in sorted(Counter(parts).items()):
                    opts = [t for t in self.all_shortest_trees(val, memo) if t.op != op]
                    options.append(list(combinations_with_replacement(opts, cnt)))
                for combo in product(*options):
                    out.append(node([t for grp in combo for t in grp]))
        out.sort(key=ExprTree.sort_key)
        memo[v] = out
        return out


def oracle_complexity(n: int, ones_cap: int | None = None) -> OracleResult:
    """Complexity, every canonical shortest expression, and the minimum
    expression height for n, by exhaustive generation."""
    if n < 1:
        raise ValueError(f"oracle_complexity requires n >= 1, got {n}")
    cap = default_ones_cap(n) if ones_cap is None else ones_cap
    eng = _Engine(n)
    eng.run(cap, stop_value=n)
    trees = eng.all_shortest_trees(n)
    heights = [t.height for t in trees]
    res = OracleResult(n=n, complexity=eng.ones[n], shortest=trees, min_height=min(heights))
    if res.min_height != eng.min_height(n):
        raise AssertionError("height bookkeeping diverged from expanded trees")
    return res


def oracle_table(limit: int) -> ComplexityTable:
    """Complexity and rank for every n <= limit by exhaustive generation.

    Rank is the minimum height among an integer's shortest expressions;
    the table carries it in the rank column.
    """
    if limit < 1:
        raise ValueError(f"oracle_table requires limit >= 1, got {limit}")
    eng = _Engine(limit)
    eng.run(default_ones_cap(limit))
    values = range(1, limit + 1)
    return ComplexityTable(limit=limit, complexity=bytes([0, *map(eng.ones.get, values)]),
                           rank=bytes([0, *map(eng.min_height, values)]))
