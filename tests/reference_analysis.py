"""The whole-column numpy analyses that the byte searches of ``analysis``
replaced, kept as the references those searches are compared with.

Each holds arrays over the whole table: ``derive_sequences`` one mask per
value (2 B/entry), ``top_log_complexity`` float64 values, a partition
and a full sort (40 B/entry), ``defect_rank_violations`` float and int64
columns (49 B/entry), and ``prime_plus1`` a bool sieve and the primes as
int64 (about 1.5 B/entry).  They assume nothing about the table, so they
hold on perturbed tables too.
"""

from __future__ import annotations

import math

import numpy as np

from intcomplexity.analysis import _DEFECT_RANK_COEF, _REAL_TOL, SequenceSet, TopLogEntry
from intcomplexity.core import FIRST_SUM_NECESSARY, LN3, ComplexityTable, max_expressible


def _value_masks(col: np.ndarray):
    """(k, col == k, index of the first k) for each value k that col holds,
    ascending."""
    mask = np.empty(len(col), dtype=bool)
    for k in range(int(col.max()) + 1):
        np.equal(col, k, out=mask)
        i = int(mask.argmax())
        if mask[i]:
            yield k, mask, i


def derive_sequences(t: ComplexityTable) -> SequenceSet:
    """The derived sequences of a table, from one mask per value."""
    c = np.frombuffer(t.complexity, dtype=np.uint8)[1:]  # complexity of n = i + 1
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
    if t.has_ranks:
        r = np.frombuffer(t.rank, dtype=np.uint8)[1:]
        rank_firsts = {k: i + 1 for k, _, i in _value_masks(r)}

    reliable_largest_max = 0
    while max_expressible(reliable_largest_max + 1) <= t.limit:
        reliable_largest_max += 1

    return SequenceSet(
        limit=t.limit,
        smallest=smallest,
        largest=largest,
        second_largest=top2,
        rank_firsts=rank_firsts,
        reliable_largest_max=reliable_largest_max,
    )


def top_log_complexity(t: ComplexityTable, count: int) -> list[TopLogEntry]:
    """The ``count`` largest values of complexity/log3(n), descending, ties
    toward smaller n, from one float64 value per entry."""
    if t.limit < 2:
        return []
    c = np.frombuffer(t.complexity, dtype=np.uint8)[2:].astype(np.float64)
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


def defect_rank_violations(t: ComplexityTable) -> tuple[int, list[dict]]:
    """The number of n whose defect falls below floor((rank-1)/2) * (1 +
    3*log3(6/7)), and the first 100 of them, from whole columns."""
    c = np.frombuffer(t.complexity, dtype=np.uint8)[1:].astype(np.float64)
    r = np.frombuffer(t.rank, dtype=np.uint8)[1:].astype(np.int64)
    n = np.arange(1, t.limit + 1, dtype=np.float64)
    d = c - 3.0 * np.log(n) / LN3
    rhs = ((r - 1) // 2).astype(np.float64) * _DEFECT_RANK_COEF
    bad = np.nonzero(d + _REAL_TOL < rhs)[0]
    first = [
        {"n": int(i) + 1, "defect": float(d[i]), "bound": float(rhs[i]), "rank": int(r[i])}
        for i in bad[:100]
    ]
    return len(bad), first


def prime_plus1(t: ComplexityTable) -> tuple[int, list[dict]]:
    """The number of primes below the first sum-necessary number within the
    table, and the counterexamples to f(p) = f(p - 1) + 1 among them, from
    a whole-range bool sieve."""
    limit = min(t.limit, FIRST_SUM_NECESSARY - 1)
    sieve = np.ones(max(limit, 1) + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    ps = np.flatnonzero(sieve)
    c = np.frombuffer(t.complexity, dtype=np.uint8)
    bad = ps[c[ps] != c[ps - 1] + 1]
    return len(ps), [{"n": int(p), "expected": int(c[p - 1]) + 1, "actual": int(c[p])} for p in bad]
