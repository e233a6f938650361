"""Block-segmented builder: complexities, ranks, checkpoints and resume.

Every table in the package comes from ``build``.  It settles n in the
blocks of ``core.blocks``, in increasing order: everything below lo is
final when a block [lo, hi) starts.  The passes over a block run in C,
in the block kernel (``_kernel.c``, compiled on first use into the
per-user cache and loaded through ctypes; see ``kernel``).  This module
keeps the block loop, the addend cap, checkpoints and resume, and
imports no numpy; the numpy builder it replaced is the tests' reference.
It owns every buffer the kernel writes, for the kernel allocates
nothing: the bytearray columns, the widest block's product keys, and a
scratch buffer that holds the sum scan's snapshot (grown when a round
needs more) and then the rank pass's flags.  It passes each buffer
itself, or a memoryview slice that starts at the block, and the kernel
works in it in place.  The table it returns is those columns, as
read-only memoryviews, with nothing copied.

* Products: a split n = d*e with 2 <= d <= e has e <= n/2 < lo, so for
  each d <= sqrt(hi - 1) the kernel walks the block's multiples of d
  against the finished prefix.
* The +1 chain, f[n] <= f[n-1] + 1, is closed in one increasing pass
  that carries f[lo-1] in from the prefix.  The same pass returns the
  block's largest estimate c, from which the cap below is taken.
* Sum splits f[j] + f[n-j] are scanned for 6 <= j <= top, where top,
  ``addend_bound(lo, c)`` or (hi - 1) // 2 when 4*E(c) > lo^2, is at
  least ``addend_bound(n, f[n])`` for every n in the block at the
  *current* estimates (see ``_addend_top``).  A round closes the chain,
  then scans, one pass over the block per j that reads f[n-j] from a
  snapshot of f[lo-top, hi) taken as the round starts; rounds repeat
  until a scan lowers nothing.  Addends 2..5 never win:
  f[j] = j there, and the chain gives f[n-j] + j.

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

and rank(n) = min(RS(n), RP(n)) = min(GS(n), GP(n)).  These heights
have fixed parities: RS and GS are odd, RP and GP even, by induction
from GS(1) = 1, since a min or max of terms of one parity keeps it and
1 + x flips it.  (In a tree: a product never has the One as a factor, so every
One sits under a sum, and a sum-rooted form has odd height and a
product-rooted one even.)  So with r = rank(n), GS(n) = r | 1 and GP(n) =
(r + 1) & ~1, and the rank column alone carries both.  Factors lie in the
finished prefix, so a ranked build finds RP in the product pass itself.
Each split d*e is relaxed as the 16-bit key (f(d) + f(e)) << 8 |
max(GP(d), GP(e)), and n keeps its least key, whose high byte is the
product estimate.  The least key has the least product complexity and,
among those, the least height; once f(n) is settled, the splits whose
complexity reaches it are exactly the tight ones.  So RP(n) is the low
byte where the high byte equals f(n), and the kernel's NONE elsewhere.
Heights stay below 128 and complexity sums below 255, so each fits its
byte, and the empty key 0xFFFF reads as 255.  Unranked builds relax
the complexity bytes alone, a fifth cheaper than the keys (5.5 against
7.1 s at 477,028,439, on 2 Xeon cores).  Ranks stay here: a separate
rank pass, walking every split again, made ranked builds 41-45 % slower.

Sum parts may lie in the block, but each is smaller than n, so one pass
in increasing n finds RS and the rank: every part's rank is final when n
is reached.  RS runs over the tight sum splits j = 1 (37 % of n below 2M)
and 6 <= j <= top, the complexity scan's last cap; a pass per j first
flags the n that have such a split (the least is 22,697,747), and only
those walk the j.  Addends 2..5 are left out, as in the complexity scan.
There f(j) = j, so a tight split f(n) = f(n-j) + j makes every step
from n-j to n a tight j = 1 split (the +1 chain caps each step at one);
the j = 1 chain then gives RS(n) <= max(GS(n-j), GS(1)) through
GS <= RS, and GS(1) = 1 <= GS(j).  Both passes read GS and GP from the
rank column, which the rank pass writes in place, so a ranked build
holds 2 B/entry and an unranked one 1 B/entry.
"""

from __future__ import annotations

import os

from .core import (
    ComplexityTable,
    MAX_STORED,
    addend_bound,
    blocks,
    max_expressible,
    upper_bound,
)
from . import kernel, storage


def _check_limit(limit: int, ranks: bool, resume: str | None) -> None:
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if limit > 2 and upper_bound(limit) > MAX_STORED:
        raise ValueError("limit too large for one-byte complexity storage")
    # the build's columns (the returned table's) and what a resume loads
    storage.check_memory(
        (limit + 1) * (2 if ranks else 1) + (os.path.getsize(resume) if resume else 0),
        f"limit {limit}")


def _addend_top(lo: int, hi: int, c: int) -> int:
    """The sum scan's cap over [lo, hi) when no estimate there exceeds c:
    addend_bound(lo, c), or (hi - 1) // 2 when 4*E(c) > lo^2.

    addend_bound(n, f[n]) <= addend_bound(n, c), as the bound grows with
    the estimate.  Once 4*E(c) <= n^2, each step of n raises
    ceil(sqrt(n^2 - 4*E(c))) by at least 1, so the bound does not increase
    with n and n = lo takes the largest.  Short of that the bound is n // 2,
    which (hi - 1) // 2 covers.
    """
    return (hi - 1) // 2 if 4 * max_expressible(c) > lo * lo else addend_bound(lo, c)


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

    ``out`` is where the finished table is saved, in a directory that
    must exist before the build starts; with ``checkpoint_every`` > 0, the
    unranked table of the finished prefix is saved at the same path at
    every multiple of it below ``limit`` (atomically, newest wins).
    ``resume`` is the path of a smaller table, whose prefix is continued; a
    checkpoint is one.  The result is bit-identical to a one-shot build,
    and a limit at or below the stored one truncates the prefix without
    recomputing.  Checkpoints hold complexities only, so ``ranks``
    excludes both.  Each checkpoint rewrites the finished prefix, so one
    every K writes about limit^2/(2K) bytes: 450,324 B beside a 100,028 B
    table at 100,000/10,000, about 11 GB at 4.8e8/1e7, until append-only
    checkpoints (ROADMAP item 9).
    """
    if ranks and (checkpoint_every or resume):
        raise ValueError("checkpoints hold complexities only: ranks cannot be checkpointed or resumed")
    _check_limit(limit, ranks, resume)
    if checkpoint_every < 0:
        raise ValueError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
    if checkpoint_every and not out:
        raise ValueError("checkpointing requires an output path")
    if out and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise FileNotFoundError(f"no directory to write {out} in")
    if out and os.path.isdir(out):
        raise IsADirectoryError(f"{out} is a directory, not a table file")
    lib = kernel.load()
    prefix = storage.load(resume).complexity[: limit + 1] if resume else b"\x00\x01"
    f = bytearray(limit + 1)
    start = len(prefix)
    # through a view: f[:start] = prefix copies a memoryview into a new bytearray first
    memoryview(f)[:start] = prefix
    del prefix
    widest = max((hi - lo for lo, hi in blocks(start, limit, checkpoint_every)), default=0)
    # the sum scan's snapshot of f[lo - top, hi), grown to fit, and the rank
    # pass's flags of the block
    scratch = bytearray(widest)
    if ranks:
        rank = bytearray(limit + 1)  # rank 0 at 0 and 1 (GS(1) = 0 | 1), which no pass writes
        key = bytearray(2 * widest)  # one uint16 product key per block entry
    for lo, hi in blocks(start, limit, checkpoint_every):
        if ranks:
            lib.ic_keys(f, rank, lo, hi, key)
        else:
            lib.ic_products(f, lo, hi, memoryview(f)[lo:])
        while True:  # rounds: close the chain, then scan sums until none lowers
            top = _addend_top(lo, hi, lib.ic_chain(f, lo, hi))
            if top < 6:
                break
            if len(scratch) < top + hi - lo:
                del scratch  # freed first, so that one scratch is held at a time
                scratch = bytearray(top + hi - lo)
            if not lib.ic_sums(f, lo, hi, top, scratch):
                break
        if ranks:
            lib.ic_ranks(f, rank, key, lo, hi, top, scratch)
        if checkpoint_every and (hi - 1) % checkpoint_every == 0 and hi - 1 < limit:
            storage.save_checkpoint(out, memoryview(f)[:hi])
    table = ComplexityTable(limit=limit, complexity=memoryview(f).toreadonly(),
                            rank=memoryview(rank).toreadonly() if ranks else None)
    if out:
        storage.save(table, out)
    return table
