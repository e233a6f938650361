"""Complexity tables with ranks.

``build_sieve`` runs the block builder of ``dp`` and, when asked, fills
the rank column in the same blocks from the final complexities.  The
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
finished prefix, so RP takes one strided pass per divisor.  Sum parts
may lie in the block, so RS and GS are iterated there until GS stops
changing; each estimate is the height of a real expression, so they
only fall, to the exact values.  GS and GP take a byte each per entry.
"""

from __future__ import annotations

from .core import ComplexityTable
from .dp import _build


def build_sieve(limit: int, with_ranks: bool = False) -> ComplexityTable:
    """Build the complexity table (and optionally ranks) for [1, limit]."""
    complexity, rank = _build(limit, ranks=with_ranks)
    return ComplexityTable(
        limit=limit, complexity=complexity, rank=rank, algorithm_tag="sieve"
    )
