"""Block-segmented builder: complexities, ranks, checkpoints and resume.

Every table in the package comes from ``_build``.  It settles n in
blocks [lo, hi), hi <= 2*lo and at most ``core.block_width(limit)``
wide, in increasing order; everything below lo is final when a block
starts.

* Products: a split n = d*e with 2 <= d <= e has e <= n/2 < lo, so for
  each d <= sqrt(hi - 1) the block's multiples of d are relaxed against
  the finished prefix as one strided slice.
* The +1 chain, f[n] <= f[n-1] + 1, is closed in one pass as a running
  minimum of f[n] - n that carries f[lo-1] in from the prefix.
* Sum splits f[j] + f[n-j] are scanned for 6 <= j <= top, the largest
  ``addend_bound(n, f[n])`` over the block at the *current* estimates;
  closure and scan repeat until a round changes nothing.  Addends 2..5
  never win: f[j] = j there, and the chain gives f[n-j] + j.

Caps taken from estimates are sound.  Every estimate is the size of a
real expression, so it is never below the true value, and a split that
improves on an estimate c has j(n-j) <= E(f(j) + f(n-j)) <= E(c), as j
<= E(f(j)), n-j <= E(f(n-j)) and E is supermultiplicative and monotone.
In a round that changes nothing, the least n still too high would be
lowered by its optimal split, whose parts are smaller and exact and
whose addend lies within the cap; so every value is exact.

Checkpoints land at every multiple of ``checkpoint_every`` below the
limit, where blocks are cut; a resumed build continues from whatever
position its checkpoint holds.  Ranks are computed in the same blocks
from the final values (see ``sieve``).
"""

from __future__ import annotations

import math
import os

import numpy as np

from .core import (
    ComplexityTable,
    MAX_COMPLEXITY,
    addend_bound,
    block_width,
    max_expressible,
    product_slices,
)
from . import storage

# rank estimate for "no such form yet"; 1 + _NONE still fits a uint8
_NONE = 127


def _check_limit(limit: int, ranks: bool) -> None:
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if limit > 2 and 3.0 * math.log2(limit) > MAX_COMPLEXITY:
        raise ValueError("limit too large for one-byte complexity storage")
    # the working arrays plus the bytes of the returned table
    need = (limit + 1) * (3 if ranks else 2)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"limit {limit} needs {need} bytes, more than physical memory ({have})")


def _addend_top(blk: np.ndarray, lo: int, hi: int) -> int:
    """Largest addend_bound(n, blk[n - lo]) over the block.

    The bound grows with the estimate and, once 4*E(c) <= n^2, falls as n
    grows, so it peaks where the running maximum of the estimates rises.
    Short of that condition it is n // 2, which (hi - 1) // 2 covers.
    """
    run = np.maximum.accumulate(blk)
    top = 0
    for i in [0, *(np.flatnonzero(run[1:] != run[:-1]) + 1)]:
        n, c = lo + int(i), int(blk[i])
        if 4 * max_expressible(c) > n * n:
            return (hi - 1) // 2
        top = max(top, addend_bound(n, c))
    return top


def _settle(f: np.ndarray, lo: int, hi: int) -> None:
    """Final complexities of [lo, hi), given the finished prefix f[:lo]."""
    blk = f[lo:hi]
    blk[:] = MAX_COMPLEXITY
    for d, tgt, cof in product_slices(lo, hi):
        np.minimum(blk[tgt], f[cof] + f[d], out=blk[tgt])
    offset = np.arange(hi - lo + 1, dtype=np.int32)
    while True:
        before = blk.copy()
        # +1 chain: running minimum of f[n] - n, carried in from f[lo - 1]
        run = np.minimum.accumulate(np.r_[f[lo - 1], blk] - offset) + offset
        blk[:] = run[1:]  # never above blk: the minimum includes n itself
        for j in range(6, _addend_top(blk, lo, hi) + 1):
            np.minimum(blk, f[lo - j : hi - j] + f[j], out=blk)
        if np.array_equal(before, blk):
            return


def _rank(f: np.ndarray, gs: np.ndarray, gp: np.ndarray, lo: int, hi: int) -> None:
    """GS and GP of [lo, hi) from final complexities (see ``sieve``)."""
    blk = f[lo:hi]
    rp = np.full(hi - lo, _NONE, dtype=np.uint8)
    for d, tgt, cof in product_slices(lo, hi):
        h = np.maximum(gp[cof], gp[d])
        h[f[cof] + f[d] != blk[tgt]] = _NONE
        np.minimum(rp[tgt], h, out=rp[tgt])
    gs_blk, gp_blk = gs[lo:hi], gp[lo:hi]
    top = _addend_top(blk, lo, hi)
    rs = np.empty_like(rp)
    while True:
        before = gs_blk.copy()
        rs[:] = _NONE
        for j in range(1, top + 1):
            h = np.maximum(gs[lo - j : hi - j], gs[j])
            h[f[lo - j : hi - j] + f[j] != blk] = _NONE
            np.minimum(rs, h, out=rs)
        np.minimum(rp + 1, rs, out=gs_blk)
        np.minimum(rs + 1, rp, out=gp_blk)
        if np.array_equal(before, gs_blk):
            return


def _build(
    limit: int,
    *,
    ranks: bool = False,
    prefix: bytes = b"\x00\x01",
    checkpoint_every: int = 0,
    out: str | None = None,
) -> tuple[bytes, bytes | None]:
    """Complexity bytes (and rank bytes) of [0, limit], continuing from
    ``prefix``, whose values for n < len(prefix) must be final."""
    _check_limit(limit, ranks)
    if checkpoint_every and not out:
        raise ValueError("checkpointing requires an output path")
    prefix = prefix[: limit + 1]
    f = np.empty(limit + 1, dtype=np.uint8)
    f[: len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
    gs = gp = None
    if ranks:
        gs = np.full(limit + 1, _NONE, dtype=np.uint8)
        gp = np.full(limit + 1, _NONE, dtype=np.uint8)
        gs[1] = 1  # the One is a part of any sum at height 1
    width = block_width(limit)
    lo = len(prefix)
    while lo <= limit:
        hi = min(2 * lo, lo + width, limit + 1)
        if checkpoint_every:
            hi = min(hi, -(-lo // checkpoint_every) * checkpoint_every + 1)
        _settle(f, lo, hi)
        if ranks:
            _rank(f, gs, gp, lo, hi)
        if checkpoint_every and (hi - 1) % checkpoint_every == 0 and hi - 1 < limit:
            storage.save_checkpoint(out, limit, hi - 1, memoryview(f)[:hi])
        lo = hi
    rank = None
    if ranks:
        np.minimum(gs, gp, out=gs)
        del gp
        gs[:2] = 0
        rank = gs.tobytes()
        del gs
    return f.tobytes(), rank


def _dp_table(limit: int, prefix: bytes, checkpoint_every: int, out: str | None):
    complexity, _ = _build(limit, prefix=prefix, checkpoint_every=checkpoint_every, out=out)
    table = ComplexityTable(limit=limit, complexity=complexity, rank=None, algorithm_tag="dp")
    if out:
        storage.save(table, out)
    return table


def build_dp(limit: int, checkpoint_every: int = 0, out: str | None = None) -> ComplexityTable:
    """Build the complexity table for [1, limit] without ranks.

    When ``out`` is given, the table is persisted there; with
    ``checkpoint_every`` > 0, partial snapshots land at the same path at
    every multiple of it below ``limit`` (atomically, newest wins).
    """
    return _dp_table(limit, b"\x00\x01", checkpoint_every, out)


def resume_dp(
    checkpoint: str, limit: int, out: str | None = None, checkpoint_every: int = 0
) -> ComplexityTable:
    """Continue an interrupted build; the result is bit-identical to a
    one-shot build of the same limit.

    A limit at or below the stored position returns the truncated prefix
    without recomputing anything.
    """
    return _dp_table(limit, storage.load(checkpoint).complexity, checkpoint_every, out)
