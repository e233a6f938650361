"""Block-segmented builder: complexities, ranks, checkpoints and resume.

Every table in the package comes from ``build``.  It settles n in
blocks [lo, hi), hi <= 2*lo and at most ``core.block_width(limit)``
wide, in increasing order; everything below lo is final when a block
starts.

* Products: a split n = d*e with 2 <= d <= e has e <= n/2 < lo, so for
  each d <= sqrt(hi - 1) the block's multiples of d are relaxed against
  the finished prefix as one strided slice.
* The +1 chain, f[n] <= f[n-1] + 1, is closed in one pass as a running
  minimum of f[n] - n that carries f[lo-1] in from the prefix.
* Sum splits f[j] + f[n-j] are scanned for 6 <= j <= top, the largest
  ``addend_bound(n, f[n])`` over the block at the *current* estimates.
  A round closes the chain, then scans; rounds repeat until a scan
  lowers nothing.  Addends 2..5 never win: f[j] = j there, and the chain
  gives f[n-j] + j.

Caps taken from estimates are sound.  Every estimate is the size of a
real expression, so it is never below the true value, and a split that
improves on an estimate c has j(n-j) <= E(f(j) + f(n-j)) <= E(c), as j
<= E(f(j)), n-j <= E(f(n-j)) and E is supermultiplicative and monotone.
A scan that lowers nothing leaves a fixpoint of both relaxations: the
closure just before it is idempotent, and the scan took its cap from
that same state.  The least n still too high would then be lowered by
its optimal split, whose parts are smaller and exact and whose addend
lies within the cap; so every value is exact.  Below 353,942,783 no
complexity needs a sum with j >= 6, so products and the chain are
already exact there and every block settles in one round.

Checkpoints land at every multiple of ``checkpoint_every`` below the
limit, where blocks are cut.  A checkpoint is the table of the finished
prefix, and a build resumes from any smaller table.

Ranks are filled in the same blocks from the final complexities.  The
rank of n is the least height of a shortest expression for n, where a
canonical tree alternates sums and products and the One has height 0.
A split of n is *tight* when its parts' complexities add up to f(n).
Every subexpression of a shortest expression is shortest, so only tight
splits occur.  For n >= 2:

* RP(n) = min over tight d*e = n of max(GP(d), GP(e)), the least height
  of a shortest product-rooted form;
* RS(n) = min over tight j + (n-j) = n, 1 <= j <= addend_bound(n, f(n)),
  of max(GS(j), GS(n-j)), the same for sum-rooted forms;
* GS(n) = min(1 + RP(n), RS(n)), the height of a sum with n as a part (a
  product part adds a level, a sum part merges), and GS(1) = 1;
* GP(n) = min(1 + RS(n), RP(n)), the same for a product factor;

and rank(n) = min(RS(n), RP(n)) = min(GS(n), GP(n)).  Factors lie in the
finished prefix, so a ranked build finds RP in the product pass itself.
Each split d*e is relaxed as the 16-bit key (f(d) + f(e)) << 8 |
max(GP(d), GP(e)), and n keeps its least key, whose high byte is the
product estimate.  The least key has the least product complexity and,
among those, the least height; once f(n) is settled, the splits whose
complexity reaches it are exactly the tight ones.  So RP(n) is the low
byte where the high byte equals f(n), and _NONE elsewhere.  Heights stay
below 128 and complexity sums below 255, so each fits its byte, and the
empty key 0xFFFF reads as MAX_COMPLEXITY.  Unranked builds relax the
complexity bytes alone, at about half the cost.

Sum parts may lie in the block, so RS and GS are iterated there until
GS stops changing; each estimate is the height of a real expression, so
they only fall, to the exact values.  The iteration runs over the block's
tight sum splits, found once per block: j = 1 (37 % of n below 2M) and
6 <= j <= top, the complexity scan's cap (the least n with such a split
is 22,697,747).  Addends 2..5 are left out, as in the complexity scan.
There f(j) = j, so a tight split f(n) = f(n-j) + j makes every step
from n-j to n a tight j = 1 split (the +1 chain caps each step at one);
the j = 1 chain then gives RS(n) <= max(GS(n-j), GS(1)) through
GS <= RS, and GS(1) = 1 <= GS(j).  GS and GP take a byte each per
entry.
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
    product_minima,
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


def _settle(f: np.ndarray, lo: int, hi: int, gp: np.ndarray | None = None) -> np.ndarray | None:
    """Final complexities of [lo, hi), given the finished prefix f[:lo].

    With the prefix's GP column ``gp``, products are relaxed as keys and
    the block's RP is returned (see the module docstring).
    """
    blk = f[lo:hi]
    if gp is None:
        product_minima(f, lo, hi, out=blk)
    else:
        # little-endian keys: byte 1 is the complexity sum, byte 0 the height
        key = np.full(hi - lo, 0xFFFF, dtype="<u2")
        buf = np.empty((hi - lo + 1) // 2, dtype="<u2")
        for d, tgt, cof in product_slices(lo, hi):
            part = buf[: cof.stop - cof.start]
            byte = part.view(np.uint8)
            np.add(f[cof], f[d], out=byte[1::2])
            np.maximum(gp[cof], gp[d], out=byte[::2])
            np.minimum(key[tgt], part, out=key[tgt])
        key = key.view(np.uint8)
        blk[:] = key[1::2]
    offset = np.arange(hi - lo + 1, dtype=np.int32)
    while True:
        # +1 chain: running minimum of f[n] - n, carried in from f[lo - 1]
        run = np.minimum.accumulate(np.r_[f[lo - 1], blk] - offset) + offset
        blk[:] = run[1:]  # never above blk: the minimum includes n itself
        before = blk.copy()  # closed; if the scan keeps it, it is final
        for j in range(6, _addend_top(blk, lo, hi) + 1):
            np.minimum(blk, f[lo - j : hi - j] + f[j], out=blk)
        if np.array_equal(before, blk):
            break
    if gp is None:
        return None
    return np.where(key[1::2] == blk, key[::2], np.uint8(_NONE))


def _rank(
    f: np.ndarray, gs: np.ndarray, gp: np.ndarray, rp: np.ndarray, lo: int, hi: int
) -> None:
    """GS and GP of [lo, hi) from final complexities and the block's RP (see
    the module docstring)."""
    blk = f[lo:hi]
    gs_blk, gp_blk = gs[lo:hi], gp[lo:hi]
    # the block's tight sum splits, found once: j = 1 as a floor under
    # GS(n - 1), GS(1) where tight and _NONE elsewhere; each j >= 6 as the
    # offsets in the block of the n it splits
    floor = np.where(f[lo - 1 : hi - 1] + 1 == blk, gs[1], np.uint8(_NONE))
    splits = []
    for j in range(6, _addend_top(blk, lo, hi) + 1):
        at = np.flatnonzero(f[lo - j : hi - j] + f[j] == blk)
        if at.size:
            splits.append((j, at))
    rs = np.empty_like(rp)
    while True:
        before = gs_blk.copy()
        np.maximum(gs[lo - 1 : hi - 1], floor, out=rs)
        for j, at in splits:
            rs[at] = np.minimum(rs[at], np.maximum(gs[lo - j : hi - j][at], gs[j]))
        np.minimum(rp + 1, rs, out=gs_blk)
        np.minimum(rs + 1, rp, out=gp_blk)
        if np.array_equal(before, gs_blk):
            return


def build(
    limit: int,
    *,
    ranks: bool = False,
    checkpoint_every: int = 0,
    out: str | None = None,
    resume: str | None = None,
) -> ComplexityTable:
    """Build the complexity table, and with ``ranks`` the rank column, for
    [1, limit].

    ``out`` is where the finished table is saved; with ``checkpoint_every``
    > 0, the unranked table of the finished prefix is saved at the same
    path at every multiple of it below ``limit`` (atomically, newest wins).
    ``resume`` is the path of a smaller table, whose prefix is continued; a
    checkpoint is one.  The result is bit-identical to a one-shot build,
    and a limit at or below the stored one truncates the prefix without
    recomputing.  Checkpoints hold complexities only, so ``ranks``
    excludes both.
    """
    if ranks and (checkpoint_every or resume):
        raise ValueError("checkpoints hold complexities only: ranks cannot be checkpointed or resumed")
    _check_limit(limit, ranks)
    if checkpoint_every and not out:
        raise ValueError("checkpointing requires an output path")
    prefix = storage.load(resume).complexity[: limit + 1] if resume else b"\x00\x01"
    f = np.empty(limit + 1, dtype=np.uint8)
    lo = len(prefix)
    f[:lo] = np.frombuffer(prefix, dtype=np.uint8)
    del prefix
    gs = gp = None
    if ranks:
        gs = np.full(limit + 1, _NONE, dtype=np.uint8)
        gp = np.full(limit + 1, _NONE, dtype=np.uint8)
        gs[1] = 1  # the One is a part of any sum at height 1
    width = block_width(limit)
    while lo <= limit:
        hi = min(2 * lo, lo + width, limit + 1)
        if checkpoint_every:
            hi = min(hi, -(-lo // checkpoint_every) * checkpoint_every + 1)
        rp = _settle(f, lo, hi, gp)
        if ranks:
            _rank(f, gs, gp, rp, lo, hi)
        if checkpoint_every and (hi - 1) % checkpoint_every == 0 and hi - 1 < limit:
            storage.save_checkpoint(out, memoryview(f)[:hi])
        lo = hi
    rank = None
    if ranks:
        np.minimum(gs, gp, out=gs)
        del gp
        gs[:2] = 0
        rank = gs.tobytes()
        del gs
    table = ComplexityTable(limit=limit, complexity=f.tobytes(), rank=rank)
    if out:
        storage.save(table, out)
    return table
