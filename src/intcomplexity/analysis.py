"""Everything derived from a finished complexity table.

Sequence extraction (least/greatest value per complexity, least value
per rank), shortest-expression reconstruction, verification of the
power/prime/defect facts the tables are expected to satisfy, collapse
and first-operation scans, Cunningham chain detection over the
least-value sequence, and the least-squares fit of its logarithmic
growth.

``tight_splits`` is the one enumeration of the splits n = p + q or
n = p * q with f(p) + f(q) = f(n).  Reconstruction and the
first-operation classification both read it: ``Reconstructor`` runs one
height recursion with the operation as its argument, which is a few
frames per unit of f(n) deep, so it needs no raised recursion limit.
Only its tree builders import ``expr``, on first use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    LN3,
    ComplexityTable,
    FIRST_SUM_NECESSARY,
    addend_bound,
    block_width,
    log_complexity,
    max_expressible,
    mersenne_upper_bound,
)
from . import kernel
from .primality import is_prime, primes_up_to
from .reporting import Report

if TYPE_CHECKING:
    from .expr import ExprTree

_DEFECT_RANK_COEF = 1.0 + 3.0 * math.log(6.0 / 7.0) / LN3
_REAL_TOL = 1e-9


def _comp_array(t: ComplexityTable) -> np.ndarray:
    return np.frombuffer(t.complexity, dtype=np.uint8)


def _rank_array(t: ComplexityTable) -> np.ndarray:
    return np.frombuffer(t.rank, dtype=np.uint8)


def _provenance(t: ComplexityTable) -> dict:
    return {"limit": t.limit}


# -- derived sequences -------------------------------------------------


@dataclass(frozen=True)
class SequenceSet:
    """Least/greatest values by complexity and least value by rank.

    ``smallest[k]``/``largest[k]`` are the least/greatest n with
    complexity exactly k; ``second_largest[k]`` is the second-greatest n
    with complexity at most k.  Entries beyond the reliable bounds may
    be artifacts of the table edge and are excluded from them.
    """

    limit: int
    smallest: dict[int, int]
    largest: dict[int, int]
    second_largest: dict[int, int]
    rank_firsts: dict[int, int] | None
    reliable_smallest_max: int
    reliable_largest_max: int
    reliable_rank_max: int | None

    def reliable_smallest(self) -> dict[int, int]:
        return {k: v for k, v in self.smallest.items() if k <= self.reliable_smallest_max}


def _value_masks(col: np.ndarray):
    """(k, col == k, index of the first k) for each value k that col holds,
    ascending.  No sort: one 1 B/entry mask, refilled for each k."""
    mask = np.empty(len(col), dtype=bool)
    for k in range(int(col.max()) + 1):
        np.equal(col, k, out=mask)
        i = int(mask.argmax())
        if mask[i]:
            yield k, mask, i


def derive_sequences(t: ComplexityTable) -> SequenceSet:
    """The derived sequences of a table, from one mask per value; the rank
    sequence comes with the table's ranks."""
    c = _comp_array(t)[1:]  # complexity of n = i + 1
    smallest: dict[int, int] = {}
    largest: dict[int, int] = {}
    second_exact: dict[int, int] = {}  # second-greatest n with complexity exactly k
    for k, mask, i in _value_masks(c):
        smallest[k] = i + 1
        back = mask[::-1]  # back[j] is n = limit - j
        j = int(back.argmax())
        largest[k] = t.limit - j
        back[j] = False
        j = int(back.argmax())
        if back[j]:
            second_exact[k] = t.limit - j

    # second-greatest value with complexity <= k: merge per-k exact tops
    top2: dict[int, int] = {}
    best1 = best2 = 0
    for k in range(1, max(largest) + 1):
        for v in (largest.get(k, 0), second_exact.get(k, 0)):  # 0: no such n
            if v > best1:
                best1, best2 = v, best1
            elif v > best2:
                best2 = v
        if best2:
            top2[k] = best2

    rank_firsts = None
    reliable_rank_max = None
    if t.has_ranks:
        rank_firsts = {k: i + 1 for k, _, i in _value_masks(_rank_array(t)[1:])}
        reliable_rank_max = 0
        while rank_firsts.get(reliable_rank_max + 1) is not None:
            reliable_rank_max += 1

    reliable_smallest_max = 0
    while (reliable_smallest_max + 1) in smallest:
        reliable_smallest_max += 1
    reliable_largest_max = 0
    while max_expressible(reliable_largest_max + 1) <= t.limit:
        reliable_largest_max += 1

    return SequenceSet(
        limit=t.limit,
        smallest=smallest,
        largest=largest,
        second_largest=top2,
        rank_firsts=rank_firsts,
        reliable_smallest_max=reliable_smallest_max,
        reliable_largest_max=reliable_largest_max,
        reliable_rank_max=reliable_rank_max,
    )


# -- reconstruction ----------------------------------------------------

_OTHER = {"+": "*", "*": "+"}


def tight_splits(t: ComplexityTable, n: int, op: str) -> list[tuple[int, int]]:
    """The splits (p, q) of n = p op q with f(p) + f(q) = f(n), p ascending.

    ``*`` gives the divisor pairs with 2 <= p <= sqrt(n); ``+`` gives the
    addend pairs with 1 <= p <= min(n // 2, addend_bound(n, f(n))), the
    only smaller addends a shortest sum can use.
    """
    c = t.complexity
    cn = c[n]
    if op == "*":
        pairs = ((d, n // d) for d in range(2, math.isqrt(n) + 1) if n % d == 0)
    else:
        pairs = ((a, n - a) for a in range(1, min(n // 2, addend_bound(n, cn)) + 1))
    return [(p, q) for p, q in pairs if c[p] + c[q] == cn]


class Reconstructor:
    """Rebuilds minimum-height shortest expressions from a finished table.

    Every shortest expression of n is an op-node over a tight split of n
    (see ``tight_splits``), and canonical form merges nested sums into
    sums and nested products into products, so the height of a node is
    1 + the height of its tallest piece.  One recursion, with the
    operation as its argument, minimizes heights:

    - ``root_h(n, op)``: the least height of a shortest op-rooted form;
    - ``inner_h(n, op)``: the least height of n's pieces inside a flat
      op node, which is n's own root form of the other operation, or a
      further op split of n.

    Ties break deterministically: product before sum at the root, a root
    form before a split inside a node, then the smallest divisor or
    addend.  Each step moves to a part of strictly smaller complexity or
    switches the operation once, so the recursion is a few frames per
    unit of f(n) deep (under 400 at n = 4.8e8).
    """

    def __init__(self, t: ComplexityTable):
        self.t = t
        self._splits: dict[tuple[int, str], list[tuple[int, int]]] = {}
        self._root: dict[tuple[int, str], float] = {}
        self._inner: dict[tuple[int, str], float] = {}

    def splits(self, n: int, op: str) -> list[tuple[int, int]]:
        got = self._splits.get((n, op))
        if got is None:
            got = self._splits[n, op] = tight_splits(self.t, n, op)
        return got

    def _split_h(self, op: str, p: int, q: int) -> float:
        return max(self.inner_h(p, op), self.inner_h(q, op))

    def root_h(self, n: int, op: str) -> float:
        """Least height of a shortest op-rooted form of n (inf if none)."""
        got = self._root.get((n, op))
        if got is None:
            got = self._root[n, op] = 1 + min(
                (self._split_h(op, p, q) for p, q in self.splits(n, op)), default=math.inf
            )
        return got

    def inner_h(self, n: int, op: str) -> float:
        """Least max-height of n's pieces inside a flat op node."""
        if n == 1:
            return 0.0
        got = self._inner.get((n, op))
        if got is None:
            got = self.root_h(n, _OTHER[op])
            for p, q in self.splits(n, op):
                got = min(got, self._split_h(op, p, q))
            self._inner[n, op] = got
        return got

    def min_height(self, n: int) -> int:
        """Rank of n computed from the table (no rank column needed)."""
        if n == 1:
            return 0
        h = min(self.root_h(n, "*"), self.root_h(n, "+"))
        if math.isinf(h):
            raise AssertionError(f"no optimal decomposition found for {n}; table corrupt?")
        return int(h)

    def _pieces(self, n: int, op: str, h: float) -> list[ExprTree]:
        """Pieces of the first op split of n whose tallest piece is h high."""
        for p, q in self.splits(n, op):
            if self._split_h(op, p, q) == h:
                return self._inner_pieces(p, op) + self._inner_pieces(q, op)
        raise AssertionError(f"height bookkeeping inconsistent at {n} ({op})")

    def _inner_pieces(self, n: int, op: str) -> list[ExprTree]:
        if n == 1:
            from .expr import ONE

            return [ONE]
        h = self.inner_h(n, op)
        if self.root_h(n, _OTHER[op]) == h:
            return [self.tree(n, _OTHER[op])]
        return self._pieces(n, op, h)

    def tree(self, n: int, op: str) -> ExprTree:
        """The least-height shortest op-rooted expression of n."""
        from .expr import add, mul

        return (add if op == "+" else mul)(self._pieces(n, op, self.root_h(n, op) - 1))

    def tree_min_height(self, n: int) -> ExprTree:
        if n == 1:
            from .expr import ONE

            return ONE
        return self.tree(n, "*" if self.root_h(n, "*") <= self.root_h(n, "+") else "+")


def reconstruct(t: ComplexityTable, n: int) -> ExprTree:
    """A shortest canonical expression for n of least height (the rank of n)."""
    if not 1 <= n <= t.limit:
        raise ValueError(f"n = {n} outside table range [1, {t.limit}]")
    tree = Reconstructor(t).tree_min_height(n)
    if tree.ones != t.value(n):
        raise AssertionError("reconstructed tree does not match the table")
    return tree


# -- verification checks ----------------------------------------------


# exclusive caps on the exponents (a, b, e) of 2^a 3^b 5^e that each
# product check walks; None leaves the exponent up to the limit
_PRODUCT_EXPONENTS = {"pow2": (None, 1, 1), "pow3": (1, None, 1), "pow235": (None, None, 6)}


def check_products(t: ComplexityTable, kind: str) -> Report:
    """Power laws: f(2^a 3^b 5^e) = 2a + 3b + 5e, over the powers of 2
    (pow2), the powers of 3 (pow3) or all products with e <= 5 (pow235)."""
    caps = _PRODUCT_EXPONENTS.get(kind)
    if caps is None:
        raise ValueError(f"unknown product check {kind!r}")
    c = t.complexity
    top = t.limit.bit_length()  # 2^a <= limit for every a < top
    counterexamples: list[dict] = []
    checked = 0
    for a, b, e in itertools.product(*(range(top if cap is None else cap) for cap in caps)):
        n = 2**a * 3**b * 5**e
        if 1 < n <= t.limit:
            checked += 1
            want = 2 * a + 3 * b + 5 * e
            if c[n] != want:
                counterexamples.append({"n": n, "expected": want, "actual": c[n]})
    return Report(
        name=f"products-{kind}",
        passed=not counterexamples,
        checked=checked,
        counterexamples=counterexamples,
        details=_provenance(t),
    )


def check_pow2_plus1(t: ComplexityTable) -> Report:
    """2^n + 1 needs 2n+1 ones, except the two threes-heavy cases n = 3, 9."""
    c = t.complexity
    counterexamples: list[dict] = []
    checked = 0
    exceptions = {3: 6, 9: 18}  # 9 = 3*3, 513 = (3*3*2+1)*3*3*3
    n = 1
    while 2**n + 1 <= t.limit:
        v = 2**n + 1
        want = exceptions.get(n, 2 * n + 1)
        checked += 1
        if c[v] != want:
            counterexamples.append({"n": v, "expected": want, "actual": c[v]})
        n += 1
    return Report(
        name="pow2-plus1",
        passed=not counterexamples,
        checked=checked,
        counterexamples=counterexamples,
        details=_provenance(t),
    )


def check_prime_plus1(t: ComplexityTable) -> Report:
    """Every prime's complexity is 1 + that of its predecessor (below the
    first sum-necessary number)."""
    limit = min(t.limit, FIRST_SUM_NECESSARY - 1)
    ps = primes_up_to(limit)
    c = _comp_array(t)
    bad = ps[c[ps] != c[ps - 1] + 1]
    counterexamples = [
        {"n": int(p), "expected": int(c[p - 1] + 1), "actual": int(c[p])} for p in bad
    ]
    return Report(
        name="prime-plus1",
        passed=not counterexamples,
        checked=len(ps),
        counterexamples=counterexamples,
        details=_provenance(t),
    )


def check_defect_rank(t: ComplexityTable) -> Report:
    """Defect dominates floor((rank-1)/2) * (1 + 3*log3(6/7))."""
    if not t.has_ranks:
        raise ValueError("defect-rank check requires a table with ranks")
    c = _comp_array(t)[1:].astype(np.float64)
    r = _rank_array(t)[1:].astype(np.int64)
    n = np.arange(1, t.limit + 1, dtype=np.float64)
    d = c - 3.0 * np.log(n) / LN3
    rhs = ((r - 1) // 2).astype(np.float64) * _DEFECT_RANK_COEF
    bad = np.nonzero(d + _REAL_TOL < rhs)[0]
    counterexamples = [
        {
            "n": int(i) + 1,
            "defect": float(d[i]),
            "bound": float(rhs[i]),
            "rank": int(r[i]),
        }
        for i in bad[:100]
    ]
    return Report(
        name="defect-rank",
        passed=not len(bad),
        checked=t.limit,
        counterexamples=counterexamples,
        details={**_provenance(t), "violations": int(len(bad))},
    )


def mersenne_table(t: ComplexityTable) -> Report:
    """Checks of the excesses A(n), B(n) of 2^n -+ 1 over 2n:
    A(n) <= floor(log2 n) + H(n) - 3, A(2n) <= A(n) + B(n),
    A(3n) <= A(n) + B(n) + 1, A(n+1) <= A(n) + 1, and the
    doubling-exponent identity A(2^k) = k - 2 for k >= 1.
    """
    c = t.complexity
    limit = t.limit
    A: dict[int, int] = {}
    B: dict[int, int] = {}
    n = 1
    while 2**n - 1 <= limit:
        A[n] = c[2**n - 1] - 2 * n
        if 2**n + 1 <= limit:
            B[n] = c[2**n + 1] - 2 * n
        n += 1
    counterexamples: list[dict] = []
    checked = 0
    for n, a_val in A.items():
        if n >= 2:
            bound = mersenne_upper_bound(n) - 2 * n
            checked += 1
            if a_val > bound:
                counterexamples.append(
                    {"fact": "excess-bound", "n": n, "excess": a_val, "bound": bound}
                )
    for n in A:
        if 2 * n in A and n in B:
            checked += 1
            if A[2 * n] > A[n] + B[n]:
                counterexamples.append({"fact": "double", "n": n, "lhs": A[2 * n], "rhs": A[n] + B[n]})
        if 3 * n in A and n in B:
            checked += 1
            if A[3 * n] > A[n] + B[n] + 1:
                counterexamples.append({"fact": "triple", "n": n, "lhs": A[3 * n], "rhs": A[n] + B[n] + 1})
        if n + 1 in A:
            checked += 1
            if A[n + 1] > A[n] + 1:
                counterexamples.append({"fact": "step", "n": n, "lhs": A[n + 1], "rhs": A[n] + 1})
    k = 1
    while 2**k in A:
        checked += 1
        if A[2**k] != k - 2:
            counterexamples.append(
                {"fact": "power-of-two-exponent", "k": k, "excess": A[2**k], "expected": k - 2}
            )
        k += 1
    return Report(
        name="mersenne",
        passed=not counterexamples,
        checked=checked,
        counterexamples=counterexamples,
        details=_provenance(t),
    )


# -- scans --------------------------------------------------------------


@dataclass(frozen=True)
class CollapseRecord:
    """Whether powers of p stop costing multiples of p's complexity."""

    p: int
    collapses_at: int | None  # least exponent k with c(p^k) < k*c(p); None = open
    checked_up_to: int  # largest exponent with p^k inside the table
    complexity: int
    rank: int | None
    log_complexity: float


def collapse_scan(t: ComplexityTable, prime_cap: int) -> list[CollapseRecord]:
    c = t.complexity
    out = []
    for p in primes_up_to(min(prime_cap, t.limit)).tolist():
        cp = c[p]
        collapses = None
        k = 2
        pk = p * p
        while pk <= t.limit:
            if c[pk] < k * cp:
                collapses = k
                break
            k += 1
            pk *= p
        checked = k if collapses else k - 1
        out.append(
            CollapseRecord(
                p=p,
                collapses_at=collapses,
                checked_up_to=checked,
                complexity=cp,
                rank=t.rank[p] if t.has_ranks else None,
                log_complexity=log_complexity(p, cp),
            )
        )
    return out


@dataclass(frozen=True)
class FirstOpRecord:
    """How the outermost operation of n's shortest expressions must look."""

    n: int
    has_product_decomposition: bool
    minimal_addend: int | None
    classification: str  # product, sub1, sub6, sub8, sub9, sub_other


def classify_first_operation(t: ComplexityTable, n: int) -> FirstOpRecord:
    if not 2 <= n <= t.limit:
        raise ValueError(f"n = {n} outside classification range [2, {t.limit}]")
    has_product = bool(tight_splits(t, n, "*"))
    sums = tight_splits(t, n, "+")
    minimal = sums[0][0] if sums else None
    if has_product:
        cls = "product"
    elif minimal == 1:
        cls = "sub1"
    elif minimal in (6, 8, 9):
        cls = f"sub{minimal}"
    else:
        cls = "sub_other"
    return FirstOpRecord(
        n=n, has_product_decomposition=has_product, minimal_addend=minimal, classification=cls
    )


def first_operation_scan(t: ComplexityTable) -> list[FirstOpRecord]:
    """All n whose optimum forces a first subtraction of 6 or more.

    Works in blocks of ``block_width(limit)``.  In each block numpy marks
    the n that a +1 split settles, f(n) = f(n-1) + 1, and the builder's
    kernel takes the least product split f(d) + f(n/d) of each n, which
    settles n when it equals f(n); only the survivors of both are
    classified one by one.  On a table whose values contradict each other
    the least product can fall below f(n) and keep more survivors, but the
    classification re-tests each.  The records, their fields and their
    order are those of classifying every n with f(n) != f(n-1) + 1.  Empty
    at any limit below the first sum-necessary number.
    """
    c = _comp_array(t)  # at most 127 (see ComplexityTable), so no sum wraps
    width = block_width(t.limit)
    products = np.empty(width, dtype=np.uint8)
    minima = kernel.load().ic_products
    out = []
    for lo in range(2, t.limit + 1, width):
        hi = min(lo + width, t.limit + 1)
        minima(c.ctypes.data, lo, hi, products.ctypes.data)
        least = products[: hi - lo]
        survivors = (c[lo:hi] != c[lo - 1 : hi - 1] + 1) & (least != c[lo:hi])
        for n in np.flatnonzero(survivors) + lo:
            rec = classify_first_operation(t, int(n))
            if rec.classification not in ("product", "sub1"):
                out.append(rec)
    return out


@dataclass(frozen=True)
class ChainRecord:
    """Backward doubling chain of primes ending at a least-value entry."""

    n: int  # complexity whose least value this is
    end: int
    chain: list[int]  # p_1 .. p_k with p_{i+1} = 2 p_i + 1, last = end
    length: int
    end_is_prime: bool
    near_prime: dict[int, bool | None] = field(default_factory=dict)


def _backward_chain(p: int) -> list[int]:
    chain = [p]
    while p % 2 == 1 and is_prime((p - 1) // 2):
        p = (p - 1) // 2
        chain.append(p)
    chain.reverse()
    return chain


def chain_scan(seq: SequenceSet) -> list[ChainRecord]:
    """Chain and divisibility structure of every reliable least value."""
    out = []
    for k in sorted(seq.reliable_smallest().keys()):
        e = seq.smallest[k]
        prime = is_prime(e)
        near: dict[int, bool | None] = {}
        for kk in (1, 2, 3):
            q, r = divmod(e - kk, kk + 1)
            near[kk] = is_prime(q) if r == 0 else None
        chain = _backward_chain(e) if prime else []
        out.append(
            ChainRecord(
                n=k,
                end=e,
                chain=chain,
                length=len(chain),
                end_is_prime=prime,
                near_prime=near,
            )
        )
    return out


# -- least-value asymptote ----------------------------------------------


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residuals: dict[int, float]


def fit_e_asymptote(seq: SequenceSet) -> FitResult:
    """Ordinary least squares of log3(smallest[k]) against k, over the
    reliable range."""
    ks = sorted(seq.reliable_smallest().keys())
    if len(ks) < 10:
        raise ValueError(f"need at least 10 reliable points, have {len(ks)}")
    x = np.array(ks, dtype=np.float64)
    y = np.array([math.log(seq.smallest[k]) / LN3 for k in ks])
    xbar, ybar = x.mean(), y.mean()
    slope = float(((x - xbar) * (y - ybar)).sum() / ((x - xbar) ** 2).sum())
    intercept = float(ybar - slope * xbar)
    residuals = {k: float(yv - (slope * k + intercept)) for k, yv in zip(ks, y)}
    return FitResult(slope=slope, intercept=intercept, residuals=residuals)


# -- logarithmic complexity ranking --------------------------------------


@dataclass(frozen=True)
class TopLogEntry:
    n: int
    complexity: int
    log_complexity: float
    rank: int | None
    unique: bool  # no other n in range shares this value (within 1e-12)


def top_log_complexity(t: ComplexityTable, count: int) -> list[TopLogEntry]:
    """The ``count`` largest values of complexity/log3(n), descending,
    ties broken toward smaller n."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if t.limit < 2:
        return []
    c = _comp_array(t)[2:].astype(np.float64)
    ns = np.arange(2, t.limit + 1, dtype=np.float64)
    logc = c * LN3 / np.log(ns)
    count = min(count, len(logc))
    take = min(count + 64, len(logc))  # margin absorbs boundary ties
    part = np.argpartition(-logc, take - 1)[:take]
    order = part[np.lexsort((part, -logc[part]))][:count]
    svals = np.sort(logc)
    out = []
    for i in order:
        v = float(logc[i])
        lo = np.searchsorted(svals, v - 1e-12, side="left")
        hi = np.searchsorted(svals, v + 1e-12, side="right")
        out.append(
            TopLogEntry(
                n=int(i) + 2,
                complexity=int(c[i]),
                log_complexity=v,
                rank=t.rank[int(i) + 2] if t.has_ranks else None,
                unique=bool(hi - lo == 1),
            )
        )
    return out
