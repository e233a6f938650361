"""Everything derived from a finished complexity table.

``core.backing`` alone resolves a table column to the bytes or bytearray
under it, for ``find`` and the kernel.  Sequence extraction (least and
greatest value per complexity, least value per rank) and the top
logarithmic complexities search it from each value's least n
(``_firsts``).  The prime check, the defect-rank check and the
first-operation scan are block passes: ``_blocks`` resolves their
columns once, then runs a flag pass of the compiled block kernel
(``_kernel.c``) over the builder's blocks, ``core.blocks``, and hands
back each call's result with the n it flagged.  The power laws and the
2^n + 1 rule are closed forms: each hands its (n, expected) pairs to
``_closed_form``, the one loop that compares them with the table.  The
Mersenne check builds one list of (holds, counterexample) cases from the
entries at 2^n -+ 1.  Reconstruction and the collapse scan read single
entries; the chain scan and the fit, the least values.  Nothing here
imports numpy.  Every verification's ``Report`` comes from ``_report``;
the other results are named tuples, whose ``_fields`` give a report's
headers in ``cli``.

``tight_splits`` is the one enumeration of the splits n = p + q or
n = p * q with f(p) + f(q) = f(n).  Reconstruction and the
first-operation classification both read it: ``Reconstructor`` runs the
builder's rank recursion (RP, RS, GP and GS, which ``dp`` defines) with
the operation as its argument, which is a few frames per unit of f(n)
deep, so it needs no raised recursion limit.  Only its tree builders
import ``expr``, on first use.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import namedtuple

from .core import (
    LN3,
    ComplexityTable,
    FIRST_SUM_NECESSARY,
    addend_bound,
    backing,
    blocks,
    defect,
    log_complexity,
    max_expressible,
    mersenne_upper_bound,
)
from . import kernel
from .primality import divisors, is_prime, primes_up_to
from .reporting import Report

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .expr import ExprTree

_DEFECT_RANK_COEF = 1.0 + 3.0 * math.log(6.0 / 7.0) / LN3
_REAL_TOL = 1e-9


def _report(name: str, t: ComplexityTable, checked: int, counterexamples: list[dict],
            **details) -> Report:
    """A verification's report: it passes when there is no counterexample,
    and its details are the table's limit and ``details``."""
    return Report(name=name, passed=not counterexamples, checked=checked,
                  counterexamples=counterexamples, details={"limit": t.limit, **details})


# -- derived sequences -------------------------------------------------


class SequenceSet(namedtuple("SequenceSet", (
        "limit smallest largest second_largest rank_firsts reliable_largest_max"))):
    """Least/greatest values by complexity and least value by rank.

    ``smallest[k]``/``largest[k]`` are the least/greatest n with
    complexity exactly k; ``second_largest[k]`` is the second-greatest n
    with complexity at most k, each a dict from k to n; ``rank_firsts``
    maps each rank to its least n, or is None without ranks.  Every least
    value is reliable: ``smallest`` holds k = 1 .. len(smallest), and
    ``rank_firsts`` ranks 0 .. len(rank_firsts) - 1.  Greatest values
    beyond ``reliable_largest_max``, the largest k with E(k) <= limit, may
    be artifacts of the table edge.
    """

    __slots__ = ()


def _firsts(col: bytes | bytearray, first: int) -> dict[int, int]:
    """The least n >= 1 holding each value first, first + 1, ... of col,
    up to the first value that col does not hold.  A table's columns hold
    every value up to their largest, so none is skipped.  Complexities:
    f(1) = 1 and f(n) <= f(n-1) + 1.  Ranks: a least-height shortest
    expression of rank r > 0 has a part of rank r - 1, for were every
    tallest part of lower rank, least-height forms of those parts would
    lower the height."""
    found = ((v, col.find(v, 1)) for v in range(first, 256))
    return dict(itertools.takewhile(lambda vn: vn[1] > 0, found))


def derive_sequences(t: ComplexityTable) -> SequenceSet:
    """The derived sequences of a table, from ``find`` and ``rfind`` on the
    bytes that hold each column; ranks come with the table's ranks.  The
    searches stop at the first value missing (``_firsts``), so every value
    found is reliable."""
    c = backing(t.complexity)
    smallest = _firsts(c, 1)
    largest: dict[int, int] = {}
    second_largest: dict[int, int] = {}  # second-greatest n with complexity <= k
    top = [0, 0]  # the two greatest n of complexity <= k, ascending
    for k in smallest:
        largest[k] = c.rfind(k, 1)
        top = sorted([*top, largest[k], c.rfind(k, 1, largest[k])])[-2:]
        if top[0] > 0:
            second_largest[k] = top[0]
    del c  # a sliced column's copy, one at a time

    rank_firsts = _firsts(backing(t.rank), 0) if t.has_ranks else None
    reliable_largest_max = 0
    while max_expressible(reliable_largest_max + 1) <= t.limit:
        reliable_largest_max += 1

    return SequenceSet(
        limit=t.limit,
        smallest=smallest,
        largest=largest,
        second_largest=second_largest,
        rank_firsts=rank_firsts,
        reliable_largest_max=reliable_largest_max,
    )


# -- reconstruction ----------------------------------------------------

_OTHER = {"+": "*", "*": "+"}


def tight_splits(t: ComplexityTable, n: int, op: str) -> list[tuple[int, int]]:
    """The splits (p, q) of n = p op q with f(p) + f(q) = f(n), p ascending.

    ``*`` gives the pairs of ``primality.divisors`` with 2 <= p <= sqrt(n);
    ``+`` gives the addend pairs with 1 <= p <= addend_bound(n, f(n)), the
    only smaller addends a shortest sum can use.
    """
    c = t.complexity
    cn = c[n]
    if op == "*":
        pairs = ((d, n // d) for d in divisors(n) if 2 <= d <= n // d)
    else:
        pairs = ((a, n - a) for a in range(1, addend_bound(n, cn) + 1))
    return [(p, q) for p, q in pairs if c[p] + c[q] == cn]


class Reconstructor:
    """Rebuilds minimum-height shortest expressions from a finished table.

    Every shortest expression of n is an op-node over a tight split of n
    (see ``tight_splits``), and canonical form merges nested sums into
    sums and nested products into products.  The heights follow the rank
    recursion that ``dp`` defines, with the operation as its argument:
    ``_least(n, op)`` is RP(n) for ``*`` or RS(n) for ``+``, with the first
    split that makes it, and ``g(n, op)`` is GP(n) or GS(n).

    Ties break deterministically: product before sum at the root, n's
    root form of the other operation before a further split inside a
    node, then the smallest divisor or addend.  Each step moves to a part
    of strictly smaller complexity or switches the operation once, so the
    recursion is a few frames per unit of f(n) deep: a recursion limit of
    43 to 69 serves the last five n up to 477,028,439.  A table whose
    values contradict each other raises ValueError.
    """

    def __init__(self, t: ComplexityTable):
        self.t = t
        self._memo: dict[tuple[int, str], tuple[float, tuple[int, int] | None]] = {}

    def _least(self, n: int, op: str) -> tuple[float, tuple[int, int] | None]:
        """The least height of a shortest op-rooted form of n (inf if none)
        and the first tight op split that makes it (None if none)."""
        got = self._memo.get((n, op))
        if got is None:
            got = (math.inf, None)
            for p, q in tight_splits(self.t, n, op):
                h = max(self.g(p, op), self.g(q, op))
                if h < got[0]:
                    got = (h, (p, q))
            self._memo[n, op] = got
        return got

    def g(self, n: int, op: str) -> float:
        """Least height of a flat op node with n as one of its parts."""
        return 1 if n == 1 else min(1 + self._least(n, _OTHER[op])[0], self._least(n, op)[0])

    def _root(self, n: int) -> str:
        """The root operation of n's least-height shortest forms."""
        op = "*" if self._least(n, "*")[0] <= self._least(n, "+")[0] else "+"
        if math.isinf(self._least(n, op)[0]):
            raise ValueError(f"{n} has no tight split in the table: table corrupt")
        return op

    def min_height(self, n: int) -> int:
        """Rank of n computed from the table (no rank column needed)."""
        return 0 if n == 1 else int(self._least(n, self._root(n))[0])

    def _pieces(self, n: int, op: str) -> list[ExprTree]:
        """n's pieces inside a flat op node: its root form of the other
        operation, or the pieces of its least op split.  A part of a split
        of finite height has a finite g, so the split taken exists."""
        if n == 1:
            from .expr import ONE

            return [ONE]
        if self.g(n, op) == 1 + self._least(n, _OTHER[op])[0]:
            return [self._tree(n, _OTHER[op])]
        p, q = self._least(n, op)[1]
        return self._pieces(p, op) + self._pieces(q, op)

    def _tree(self, n: int, op: str) -> ExprTree:
        """The least-height shortest op-rooted expression of n, of finite
        height: an op node over the pieces of its least op split."""
        from .expr import add, mul

        p, q = self._least(n, op)[1]
        return (add if op == "+" else mul)(self._pieces(p, op) + self._pieces(q, op))

    def tree_min_height(self, n: int) -> ExprTree:
        if n == 1:
            from .expr import ONE

            return ONE
        return self._tree(n, self._root(n))


def reconstruct(t: ComplexityTable, n: int) -> ExprTree:
    """A shortest canonical expression for n of least height (the rank of n);
    it holds f(n) ones, as each op node joins the pieces of a tight split."""
    t.value(n)  # refuses an n outside the table
    return Reconstructor(t).tree_min_height(n)


# -- verification checks ----------------------------------------------


# exclusive caps on the exponents (a, b, e) of 2^a 3^b 5^e that each
# product check walks; None leaves the exponent up to the limit
_PRODUCT_EXPONENTS = {"pow2": (None, 1, 1), "pow3": (1, None, 1), "pow235": (None, None, 6)}


def _closed_form(name: str, t: ComplexityTable, cases) -> Report:
    """The report of a closed form: f(n) against the expected value of each
    (n, expected) in cases with 1 < n <= limit."""
    c = t.complexity
    checked = [(n, want) for n, want in cases if 1 < n <= t.limit]
    counterexamples = [{"n": n, "expected": want, "actual": c[n]}
                       for n, want in checked if c[n] != want]
    return _report(name, t, len(checked), counterexamples)


def check_products(t: ComplexityTable, kind: str) -> Report:
    """Power laws: f(2^a 3^b 5^e) = 2a + 3b + 5e, over the powers of 2
    (pow2), the powers of 3 (pow3) or all products with e <= 5 (pow235)."""
    caps = _PRODUCT_EXPONENTS.get(kind)
    if caps is None:
        raise ValueError(f"unknown product check {kind!r}")
    top = t.limit.bit_length()  # 2^a <= limit for every a < top
    exponents = itertools.product(*(range(top if cap is None else cap) for cap in caps))
    return _closed_form(f"products-{kind}", t, (
        (2**a * 3**b * 5**e, 2 * a + 3 * b + 5 * e) for a, b, e in exponents))


def check_pow2_plus1(t: ComplexityTable) -> Report:
    """2^n + 1 needs 2n+1 ones, except the two threes-heavy cases n = 3, 9."""
    exceptions = {3: 6, 9: 18}  # 9 = 3*3, 513 = (3*3*2+1)*3*3*3
    return _closed_form("pow2-plus1", t, (
        (2**n + 1, exceptions.get(n, 2 * n + 1)) for n in range(1, t.limit.bit_length())))


def _flagged(flag: bytearray, lo: int, hi: int):
    """The n in [lo, hi) whose byte flag[n - lo] is 1, ascending."""
    i = flag.find(1, 0, hi - lo)
    while i >= 0:
        yield lo + i
        i = flag.find(1, i + 1, hi - lo)


def _blocks(name: str, first: int, last: int, *args):
    """Runs the kernel's flag pass ``name`` as name(*args, lo, hi, flag) on
    each block [lo, hi) of ``blocks(first, last)``, and yields what it
    returned with the n whose byte flag[n - lo] it set to 1, ascending.
    Each column among ``args``, a memoryview, is resolved to its
    ``backing`` before the first block.  ``flag`` is one buffer the width
    of the widest block, so each block's n are read before the next block
    runs."""
    args = [backing(a) if isinstance(a, memoryview) else a for a in args]
    flag = bytearray(max((hi - lo for lo, hi in blocks(first, last)), default=0))
    block_pass = getattr(kernel.load(), name)
    for lo, hi in blocks(first, last):
        yield block_pass(*args, lo, hi, flag), _flagged(flag, lo, hi)


def check_prime_plus1(t: ComplexityTable) -> Report:
    """Every prime's complexity is 1 + that of its predecessor (below the
    first sum-necessary number): the kernel sieves each block with the
    primes up to sqrt(limit), counts them, and flags those that break the
    rule."""
    limit = min(t.limit, FIRST_SUM_NECESSARY - 1)
    c = t.complexity
    base = array("q", primes_up_to(math.isqrt(limit)))  # int64, as the kernel reads them
    checked = 0
    counterexamples = []
    for count, failing in _blocks("ic_prime_steps", 2, limit, c, base, len(base)):
        checked += count
        counterexamples += [{"n": p, "expected": c[p - 1] + 1, "actual": c[p]} for p in failing]
    return _report("prime-plus1", t, checked, counterexamples)


def check_defect_rank(t: ComplexityTable) -> Report:
    """Defect dominates floor((rank-1)/2) * (1 + 3*log3(6/7)): the kernel
    takes each defect as the whole-column float64 pass did, log(n) * 3 / LN3
    subtracted from f(n), and flags those below the bound their rank sets.
    The report counts every violation and lists the first 100."""
    if not t.has_ranks:
        raise ValueError("defect-rank check requires a table with ranks")
    c, r = t.complexity, t.rank
    violations = 0
    counterexamples = []
    for count, failing in _blocks("ic_defects", 1, t.limit, c, r,
                                  _DEFECT_RANK_COEF, _REAL_TOL, LN3):
        violations += count
        for n in itertools.islice(failing, 100 - len(counterexamples)):
            counterexamples.append({"n": n, "defect": defect(n, c[n]),
                                    "bound": (r[n] - 1) // 2 * _DEFECT_RANK_COEF, "rank": r[n]})
    return _report("defect-rank", t, t.limit, counterexamples, violations=violations)


def mersenne_table(t: ComplexityTable) -> Report:
    """Checks of the excesses A(n), B(n) of 2^n -+ 1 over 2n:
    A(n) <= floor(log2 n) + H(n) - 3, A(2n) <= A(n) + B(n),
    A(3n) <= A(n) + B(n) + 1, A(n+1) <= A(n) + 1, and the
    doubling-exponent identity A(2^k) = k - 2 for k >= 1.  Each case is a
    pair (holds, counterexample), over the 2^n -+ 1 inside the table.
    """
    c = t.complexity
    A = {n: c[2**n - 1] - 2 * n for n in range(1, (t.limit + 1).bit_length())}
    B = {n: c[2**n + 1] - 2 * n for n in range(1, (t.limit - 1).bit_length())}
    cases = [(A[n] <= bound, {"fact": "excess-bound", "n": n, "excess": A[n], "bound": bound})
             for n in A if n >= 2 for bound in [mersenne_upper_bound(n) - 2 * n]]
    for n in A:
        ab = A[n] + B.get(n, 0)  # B(n) is there wherever A(2n) is: 2^n + 1 <= 4^n - 1
        cases += [(A[m] <= rhs, {"fact": fact, "n": n, "lhs": A[m], "rhs": rhs})
                  for fact, m, rhs in (("double", 2 * n, ab), ("triple", 3 * n, ab + 1),
                                       ("step", n + 1, A[n] + 1)) if m in A]
    cases += [(A[2**k] == k - 2, {"fact": "power-of-two-exponent", "k": k, "excess": A[2**k],
                                  "expected": k - 2}) for k in range(1, len(A).bit_length())]
    return _report("mersenne", t, len(cases), [ce for holds, ce in cases if not holds])


# -- scans --------------------------------------------------------------


class CollapseRecord(namedtuple("CollapseRecord", (
        "p collapses_at checked_up_to complexity rank log_complexity"))):
    """Whether powers of p stop costing multiples of p's complexity:
    ``collapses_at`` is the least exponent k with c(p^k) < k*c(p), or None
    while none is; ``checked_up_to`` is the largest exponent with p^k
    inside the table; ``rank`` is None without ranks."""

    __slots__ = ()


def collapse_scan(t: ComplexityTable, prime_cap: int) -> list[CollapseRecord]:
    """The record of each prime p < prime_cap inside the table."""
    c = t.complexity
    out = []
    for p in primes_up_to(min(prime_cap - 1, t.limit)):
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


class FirstOpRecord(namedtuple("FirstOpRecord", (
        "n has_product_decomposition minimal_addend classification"))):
    """How the outermost operation of n's shortest expressions must look:
    ``minimal_addend`` is None when no sum is tight, and ``classification``
    is product, sub1, sub6, sub8, sub9 or sub_other."""

    __slots__ = ()


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

    The kernel flags, block by block, the n that neither a +1 split,
    f(n) = f(n-1) + 1, nor the least product split f(d) + f(n/d) (the
    builder's product pass) settles; only these survivors are classified
    one by one.  On a table whose values contradict each other the least
    product can fall below f(n) and keep more survivors, but the
    classification re-tests each.  The records, their fields and their
    order are those of classifying every n with f(n) != f(n-1) + 1.
    Empty at any limit below the first sum-necessary number.
    """
    out = []
    for _, flagged in _blocks("ic_survivors", 2, t.limit, t.complexity):
        for n in flagged:
            rec = classify_first_operation(t, n)
            if rec.classification not in ("product", "sub1"):
                out.append(rec)
    return out


class ChainRecord(namedtuple("ChainRecord", "n end chain length end_is_prime near_prime")):
    """Backward doubling chain of primes ending at a least-value entry:
    ``end`` is the least value of complexity ``n``, ``chain`` is
    p_1 .. p_k with p_{i+1} = 2 p_i + 1 and p_k = end, and ``near_prime``
    maps kk = 1, 2, 3 to whether (end - kk) / (kk + 1) is prime, or None
    where it is not an integer."""

    __slots__ = ()


def _backward_chain(p: int) -> list[int]:
    chain = [p]
    while p % 2 == 1 and is_prime((p - 1) // 2):
        p = (p - 1) // 2
        chain.append(p)
    chain.reverse()
    return chain


def chain_scan(seq: SequenceSet) -> list[ChainRecord]:
    """Chain and divisibility structure of every least value."""
    out = []
    for k in sorted(seq.smallest):
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


class FitResult(namedtuple("FitResult", "slope intercept residuals")):
    """The fitted line, and each k's residual log3(smallest[k]) - (slope*k + intercept)."""

    __slots__ = ()


def fit_e_asymptote(seq: SequenceSet) -> FitResult:
    """Ordinary least squares of log3(smallest[k]) against k, over every
    least value, by the ``math.fsum`` sums of
    ``statistics.linear_regression`` (Python 3.11), so both give the same
    floats."""
    ks = sorted(seq.smallest)
    if len(ks) < 10:
        raise ValueError(f"need at least 10 reliable points, have {len(ks)}")
    y = [math.log(seq.smallest[k]) / LN3 for k in ks]
    kbar = math.fsum(ks) / len(ks)
    ybar = math.fsum(y) / len(y)
    sky = math.fsum((k - kbar) * (yv - ybar) for k, yv in zip(ks, y))
    skk = math.fsum((d := k - kbar) * d for k in ks)
    slope = sky / skk
    intercept = ybar - slope * kbar
    residuals = {k: yv - (slope * k + intercept) for k, yv in zip(ks, y)}
    return FitResult(slope=slope, intercept=intercept, residuals=residuals)


# -- logarithmic complexity ranking --------------------------------------


class TopLogEntry(namedtuple("TopLogEntry", "n complexity log_complexity rank unique")):
    """One n of large logarithmic complexity; ``rank`` is None without
    ranks, and ``unique`` says that no other n in range shares its value
    (within 1e-12)."""

    __slots__ = ()


def top_log_complexity(t: ComplexityTable, count: int) -> list[TopLogEntry]:
    """The ``count`` largest values of complexity/log3(n), descending, ties
    broken toward smaller n, from ``find`` on the bytes that hold the column.

    At a fixed complexity the value falls as n grows, so the first
    ``count`` + 1 n >= 2 of each complexity hold the top ``count``, and
    show whether another n lies within 1e-12 of an entry: were such an n
    not among them, the count + 1 before it of its complexity would lie
    above it, and unless one lay within 1e-12 of the entry, ``count`` of
    them would outrank it.  The search runs from each complexity's least n
    (``_firsts``), so on a damaged table missing a complexity, the higher
    ones are not searched; ``verify`` is what checks a table.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    c = backing(t.complexity)
    found = []  # (-value, n)
    for k, n in _firsts(c, 2).items():
        ns = [n]  # the first count + 1 n of complexity k
        while len(ns) <= count and (n := c.find(k, n + 1)) > 0:
            ns.append(n)
        found += [(-log_complexity(n, k), n) for n in ns]
    found.sort()
    out = []
    for i, (neg, n) in enumerate(found[:count]):
        # the values within 1e-12 of this one are next to it in this order
        near = [w for w, _ in found[max(i - 1, 0) : i + 2] if neg - 1e-12 <= w <= neg + 1e-12]
        out.append(
            TopLogEntry(
                n=n,
                complexity=c[n],
                log_complexity=-neg,
                rank=t.rank[n] if t.has_ranks else None,
                unique=len(near) == 1,
            )
        )
    return out
