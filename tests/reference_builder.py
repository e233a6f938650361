"""The numpy block builder that the compiled kernel replaced, kept as the
reference that the kernel is compared with byte for byte, beside the
exhaustive oracle.

It takes the blocks of ``dp.build`` and runs the same passes with one
numpy call per divisor or addend: the product relaxation, rounds of the
+1 chain and the j >= 6 sum scan until a scan lowers nothing, then RP
from its definition over the block's tight product splits, and GS/GP
iterated over the block's tight sum splits until GS stops changing.
``dp``'s docstring has the definitions and the correctness argument.
"""

from __future__ import annotations

import math

import numpy as np

from intcomplexity.core import addend_bound, blocks, max_expressible

_NONE = 127
# the product estimate of an n with no split: the kernel's empty byte
_NO_PRODUCT = 255


def product_slices(lo: int, hi: int):
    """Product splits n = d*e, 2 <= d <= e, of the n in [lo, hi).

    Yields (d, slice of the multiples n >= d*d of d, relative to lo,
    slice of their cofactors e = n/d), one per d <= sqrt(hi - 1).
    """
    for d in range(2, math.isqrt(hi - 1) + 1):
        first = max(d * d, -(-lo // d) * d)
        if first < hi:
            yield d, slice(first - lo, hi - lo, d), slice(first // d, (hi - 1) // d + 1)


def product_minima(c: np.ndarray, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """Least c[d] + c[n/d] over the product splits of each n in [lo, hi),
    into the uint8 array ``out`` of length hi - lo, and _NO_PRODUCT
    where n has none."""
    out[:] = _NO_PRODUCT
    for d, tgt, cof in product_slices(lo, hi):
        np.minimum(out[tgt], c[cof] + c[d], out=out[tgt])
    return out


def _addend_top(blk: np.ndarray, lo: int, hi: int) -> int:
    """Largest addend_bound(n, blk[n - lo]) over the block."""
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
    product_minima(f, lo, hi, out=blk)
    offset = np.arange(hi - lo + 1, dtype=np.int32)
    while True:
        # +1 chain: running minimum of f[n] - n, carried in from f[lo - 1]
        run = np.minimum.accumulate(np.r_[f[lo - 1], blk] - offset) + offset
        blk[:] = run[1:]
        before = blk.copy()
        for j in range(6, _addend_top(blk, lo, hi) + 1):
            np.minimum(blk, f[lo - j : hi - j] + f[j], out=blk)
        if np.array_equal(before, blk):
            break


def _rp(f: np.ndarray, gp: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """RP of [lo, hi) from final complexities: the least max(GP(d), GP(e))
    over the tight splits d*e, and _NONE where n has none."""
    blk = f[lo:hi]
    rp = np.full(hi - lo, _NONE, dtype=np.uint8)
    for d, tgt, cof in product_slices(lo, hi):
        tight = np.where(f[cof] + f[d] == blk[tgt], np.maximum(gp[cof], gp[d]),
                         np.uint8(_NONE))
        np.minimum(rp[tgt], tight, out=rp[tgt])
    return rp


def _rank(
    f: np.ndarray, gs: np.ndarray, gp: np.ndarray, rp: np.ndarray, lo: int, hi: int
) -> None:
    """GS and GP of [lo, hi) from final complexities and the block's RP."""
    blk = f[lo:hi]
    gs_blk, gp_blk = gs[lo:hi], gp[lo:hi]
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


def build(limit: int, ranks: bool = False) -> tuple[bytes, bytes | None]:
    """Complexity column, and with ``ranks`` the rank column, of [1, limit]
    in ``dp.build``'s blocks."""
    f = np.zeros(limit + 1, dtype=np.uint8)
    f[1] = 1
    gs = gp = None
    if ranks:
        gs = np.full(limit + 1, _NONE, dtype=np.uint8)
        gp = np.full(limit + 1, _NONE, dtype=np.uint8)
        gs[1] = 1
    for lo, hi in blocks(2, limit):
        _settle(f, lo, hi)
        if ranks:
            _rank(f, gs, gp, _rp(f, gp, lo, hi), lo, hi)
    if not ranks:
        return f.tobytes(), None
    rank = np.minimum(gs, gp)
    rank[:2] = 0
    return f.tobytes(), rank.tobytes()
