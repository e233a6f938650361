"""Core types and closed-form quantities for integer complexity.

The complexity of a positive integer is the least number of 1s in an
arithmetic expression for it over {1, +, *} (OEIS A005245).  Everything
else in the package is built on the exact bounds and closed forms here:
the 3*log3 lower bound, the largest-value-per-ones sequence (A000792),
the integer logarithm (A001414), logarithmic complexity, defect, the
smallest-addend bound used by the builders, and ``blocks``, the one
block geometry, which the builder and the analyses' block passes walk.
``MAX_STORED`` is the one ceiling on a table's values and a build's
limit, and ``backing`` the one reader of a column's bytes, for
``check_stored`` and ``analysis``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

LN3 = math.log(3.0)

# largest value a table may hold, so that two of them sum inside a uint8
# as the builder and the scans add them; 3*log2(limit) must not exceed it
MAX_STORED = 127

# smallest number whose shortest expressions all require a first
# operation other than "+1" or a product split (found by M. N. Fuller)
FIRST_SUM_NECESSARY = 353942783


def lower_bound(n: int) -> int:
    """Ceiling of 3*log3(n), decided by exact power-of-three comparison.

    Floating logs round the wrong way at powers of three, which would
    break the exactness of the bound there, so c counts up from below the
    answer until 3**c >= n**3, compared in integer arithmetic.
    """
    if n < 2:
        raise ValueError(f"lower_bound requires n >= 2, got {n}")
    cube = n * n * n
    c = max(1, math.ceil(3.0 * math.log(n) / LN3) - 2)
    while 3**c < cube:
        c += 1
    return c


def upper_bound(n: int) -> float:
    """3*log2(n), valid for every n > 1."""
    if n < 2:
        raise ValueError(f"upper_bound requires n >= 2, got {n}")
    return 3.0 * math.log2(n)


def max_expressible(k: int) -> int:
    """Largest integer whose complexity is k (A000792).

    Closed form: 1 for k = 1, then 2*3^j, 3*3^j, 4*3^j for
    k = 3j+2, 3j+3, 3j+4.
    """
    if k < 1:
        raise ValueError(f"max_expressible requires k >= 1, got {k}")
    if k == 1:
        return 1
    r = k % 3
    if r == 2:
        return 2 * 3 ** ((k - 2) // 3)
    if r == 0:
        return 3 ** (k // 3)
    return 4 * 3 ** ((k - 4) // 3)


def second_max_expressible(k: int) -> int:
    """Second-largest integer of complexity at most k; equals 8/9 of the
    largest for every k >= 8, exactly, as E(k) has a factor 9 there."""
    if k < 8:
        raise ValueError(f"second_max_expressible requires k >= 8, got {k}")
    return 8 * max_expressible(k) // 9


def integer_logarithm(n: int) -> int:
    """Sum of prime factors with multiplicity (A001414): the ones count
    of the flat product-of-sums expression for n."""
    if n < 2:
        raise ValueError(f"integer_logarithm requires n >= 2, got {n}")
    from .primality import factorize

    return sum(factorize(n))


def log_complexity(n: int, c: int) -> float:
    """c / log3(n) where c is the complexity of n; always in [3, 4.755]."""
    if n < 2:
        raise ValueError(f"log_complexity requires n >= 2, got {n}")
    return c * LN3 / math.log(n)


def defect(n: int, c: int) -> float:
    """c - 3*log3(n); zero exactly at powers of three."""
    if n < 1:
        raise ValueError(f"defect requires n >= 1, got {n}")
    return c - 3.0 * math.log(n) / LN3


def addend_bound(n: int, c_upper: int) -> int:
    """Largest value the smaller addend of a minimal sum split of n can take.

    For any valid upper estimate c_upper >= complexity(n) the smaller
    addend a of a split n = a + b with additive complexities satisfies
    a <= (n - sqrt(n^2 - 4*E(c_upper))) / 2 with E the closed-form
    largest-value sequence.  Returns the floor of that quantity, or
    n // 2 when the discriminant is negative (small-n regime), so never
    more than n // 2.
    """
    if n < 2:
        raise ValueError(f"addend_bound requires n >= 2, got {n}")
    y = max_expressible(c_upper)
    disc = n * n - 4 * y
    if disc < 0:
        return n // 2
    s = math.isqrt(disc)
    ceil_s = s if s * s == disc else s + 1
    return (n - ceil_s) // 2


def blocks(lo: int, last: int, cut: int = 0) -> Iterator[tuple[int, int]]:
    """The blocks [lo, hi) of the builder and of the analyses' block passes,
    generated one at a time: they cover [lo, last], lo >= 1, in increasing
    order with hi <= 2*lo, each at most max(2^16, 32*isqrt(last)) wide, and
    with ``cut`` > 0 every multiple of it below ``last`` is the last n of a
    block.

    A block is a handful of kernel calls and a few Python steps (the addend
    cap, a checkpoint test), and its product pass walks each divisor up to
    sqrt(hi) once, so a width in proportion to sqrt(last) keeps that walk's
    fixed cost per divisor a fixed share of the block's work.  The factor 32
    keeps a block's product keys and complexities near 2 MB at 477,028,439,
    inside one core's L2 cache; at 64 the ranked build there took about a
    quarter longer.  Small limits keep each block's buffers near 64 KB.
    """
    width = max(1 << 16, 32 * math.isqrt(last))
    step = cut or last + 1  # without a cut, the next multiple lies past last + 1
    while lo <= last:
        hi = min(2 * lo, lo + width, last + 1, -(-lo // step) * step + 1)
        yield lo, hi
        lo = hi


def backing(column) -> bytes | bytearray:
    """The bytes or bytearray under a table column, read in place: the
    column itself, or the object under a memoryview of the whole of one
    (what ``dp.build`` and ``storage.load`` return); any other buffer, a
    sliced view for one, is copied into bytes."""
    if isinstance(column, (bytes, bytearray)):
        return column
    held = column.obj if isinstance(column, memoryview) else None
    whole = isinstance(held, (bytes, bytearray)) and column.contiguous
    if whole and len(column) == column.nbytes == len(held):
        return held
    return bytes(column)


def check_stored(complexity) -> None:
    """Refuse a complexity column (any buffer) holding a value above MAX_STORED.

    MAX_STORED = 127 is exactly the ASCII range, so a column passes when
    its bytes, read in place through ``backing``, are ASCII.
    """
    col = backing(complexity)
    if not col.isascii():
        top = max(col.translate(None, bytes(range(MAX_STORED + 1))))
        raise ValueError(f"complexity value {top} above {MAX_STORED}: sums of two would wrap")


def mersenne_upper_bound(n: int) -> int:
    """Upper bound 2n + floor(log2 n) + H(n) - 3 on the complexity of 2^n - 1,
    H being the binary Hamming weight."""
    if n < 2:
        raise ValueError(f"mersenne_upper_bound requires n >= 2, got {n}")
    return 2 * n + n.bit_length() - 1 + n.bit_count() - 3


def is_power_of_3(n: int) -> bool:
    if n < 1:
        return False
    while n % 3 == 0:
        n //= 3
    return n == 1


class ComplexityTable:
    """Densely packed complexity values for n = 1..limit.

    ``complexity`` (and ``rank`` when present) are read-only byte buffers
    of length limit + 1 with index 0 unused, so the value for n sits at
    index n.  ``build`` and ``storage.load`` give read-only memoryviews of
    their own arrays, which compare equal to the same bytes; ``bytes`` are
    accepted too.  No complexity exceeds MAX_STORED.  A table is its
    values: it records no builder, and ``storage.save`` writes these
    bytes behind a header of limit and flags.  Two tables are equal when
    their limits and columns are; a table is not hashable.  Its attributes cannot be assigned
    after construction, so a table is safe to share between threads.
    """

    __slots__ = ("limit", "complexity", "rank")

    def __init__(self, limit: int, complexity: memoryview | bytes,
                 rank: memoryview | bytes | None = None) -> None:
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        if len(complexity) != limit + 1:
            raise ValueError(
                f"complexity array has {len(complexity)} bytes, "
                f"expected limit + 1 = {limit + 1}"
            )
        if rank is not None and len(rank) != limit + 1:
            raise ValueError("rank array length does not match limit")
        if complexity[1] != 1:
            raise ValueError("complexity of 1 must be 1")
        check_stored(complexity)
        for name, value in (("limit", limit), ("complexity", complexity), ("rank", rank)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"a ComplexityTable is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a ComplexityTable is read-only: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.limit, self.complexity, self.rank)
                == (other.limit, other.complexity, other.rank))

    @property
    def has_ranks(self) -> bool:
        return self.rank is not None

    def value(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise ValueError(f"n = {n} outside table range [1, {self.limit}]")
        return self.complexity[n]

    def rank_of(self, n: int) -> int:
        if self.rank is None:
            raise ValueError("table was built without ranks")
        self.value(n)  # refuses an n outside the table
        return self.rank[n]

    def __len__(self) -> int:
        return self.limit
