import hashlib
import math

import numpy as np
import pytest

from golden import CHAIN4_COMPLEXITIES, CHAIN_LONG, LEAST_BY_RANK, LEAST_VALUE
from intcomplexity.analysis import Reconstructor, chain_scan, derive_sequences, tight_splits
from intcomplexity.cli import main
from intcomplexity.core import ComplexityTable, blocks, max_expressible
from intcomplexity.dp import build


def test_rank_small():
    t = build(10, ranks=True)
    assert t.rank_of(7) == 3
    assert t.rank_of(1) == 0
    assert [t.rank_of(n) for n in (2, 3, 4, 5)] == [1, 1, 1, 1]


def test_matches_oracle(sieve_5k, oracle_5k):
    assert sieve_5k.complexity == oracle_5k.complexity
    assert sieve_5k.rank == oracle_5k.rank


def test_tiny_limits():
    assert build(1).value(1) == 1
    t = build(2, ranks=True)
    assert t.value(2) == 2 and t.rank_of(2) == 1
    t = build(3)
    assert [t.value(n) for n in (1, 2, 3)] == [1, 2, 3]


def test_prefix_of_larger_table(sieve_5k, desk_table):
    # blocks double until they are 2**16 wide, so these limits end blocks
    # at many places; each table is a prefix of the larger one
    for limit in (*range(1, 70), 4097, 5000):
        t = build(limit, ranks=True)
        assert t.complexity == sieve_5k.complexity[: limit + 1], limit
        assert t.rank == sieve_5k.rank[: limit + 1], limit
    for limit in (2**16 - 1, 2**16 + 1, 2**17 + 2**16 + 5):
        t = build(limit, ranks=True)
        assert t.complexity == desk_table.complexity[: limit + 1], limit
        assert t.rank == desk_table.rank[: limit + 1], limit


def test_ranked_and_unranked_complexities_agree(desk_table):
    # a ranked build reads its complexities off the high bytes of the
    # product keys, an unranked one relaxes the complexity bytes alone
    limit = 2**17 + 2**16 + 5
    assert build(limit, ranks=True).complexity == build(limit).complexity
    assert build(desk_table.limit).complexity == desk_table.complexity


def test_ranks_match_reconstruction(desk_table):
    """Ranks past the oracle's 5k agree with the recursion over tight splits
    that ``Reconstructor`` runs on the complexities alone: on a seeded
    sample, at both ends of every block the builder takes, and at every n
    with a tight sum split of addend 3 or 4, which the rank pass reaches
    only through the j = 1 chain."""
    limit = desk_table.limit
    f = np.frombuffer(desk_table.complexity, dtype=np.uint8)
    ns = {int(n) for n in np.random.default_rng(2012).integers(2, limit + 1, size=300)}
    for lo, hi in blocks(2, limit):  # the blocks of dp.build
        ns |= {lo, hi - 1}
    by_3_or_4 = set()
    for j in (3, 4):  # n = m + j with f(m) + f(j) = f(n), m = 1 .. limit - j
        at = np.flatnonzero(f[1 : limit + 1 - j] + f[j] == f[1 + j :])
        by_3_or_4 |= set((at + 1 + j).tolist())
    assert {1223, 4283, 56879, 161879} <= by_3_or_4
    ns |= by_3_or_4
    unranked = Reconstructor(ComplexityTable(limit=limit, complexity=desk_table.complexity))
    expected = {n: unranked.min_height(n) for n in sorted(ns)}
    assert {n: desk_table.rank_of(n) for n in expected} == expected


def test_rank_through_an_addend_of_six():
    # 22,697,747 = 22,697,741 + 6 is the least n with a tight sum split of
    # addend 6 or more, and only that split gives its rank: without the
    # rank pass's j >= 6 splits it comes out 9, not 5
    n = 22_697_747
    t = build(n, ranks=True)
    assert [a for a, _ in tight_splits(t, n, "+")] == [1, 2, 6]
    unranked = Reconstructor(ComplexityTable(limit=n, complexity=t.complexity))
    assert t.rank_of(n) == unranked.min_height(n) == 5


def test_table_recomputes_from_its_splits(desk_table):
    """Every entry is the least of its +1, product and sum splits.

    The smaller addend a of a minimal sum split satisfies
    a(n - a) <= E(f(n)), E being the largest value of each complexity,
    so the bounded scan below proves the whole table from f(1) = 1.  A
    seeded sample is also checked against every sum split.
    """
    f = np.frombuffer(desk_table.complexity, dtype=np.uint8).astype(np.int64)
    limit = desk_table.limit
    assert f[1] == 1
    best = np.empty(limit + 1, dtype=np.int64)
    best[2:] = f[1:-1] + 1
    for d in range(2, math.isqrt(limit) + 1):
        np.minimum(best[d * d :: d], f[d] + f[d : limit // d + 1], out=best[d * d :: d])
    E = np.array([0] + [max_expressible(k) for k in range(1, int(f.max()) + 1)], dtype=np.int64)
    e_of_f = E[f]
    n = np.arange(limit + 1, dtype=np.int64)
    a = 1
    while True:
        ok = a * (n[2 * a :] - a) <= e_of_f[2 * a :]
        if not ok.any():
            break
        cand = np.where(ok, f[a] + f[a : limit - a + 1], best[2 * a :])
        np.minimum(best[2 * a :], cand, out=best[2 * a :])
        a += 1
    assert np.array_equal(best[2:], f[2:])

    rng = np.random.default_rng(2012)
    for m in sorted(rng.integers(2, limit + 1, size=48).tolist()) + [limit]:
        h = m // 2
        sums = f[1 : h + 1] + f[m - 1 : m - h - 1 : -1]
        prods = [f[d] + f[m // d] for d in range(2, math.isqrt(m) + 1) if m % d == 0]
        assert min([int(sums.min())] + prods) == f[m], m


def test_least_values_match_published(desk_seq):
    assert {k: desk_seq.smallest[k] for k in LEAST_VALUE} == LEAST_VALUE


def test_least_by_rank_match_published(desk_seq, rank17_table):
    published = {r: v for r, v in LEAST_BY_RANK.items() if r <= 14}
    assert {r: desk_seq.rank_firsts[r] for r in published} == published
    # up to the least n of rank 17: ranks 15-17 appear, and rank 18 does not
    published = {r: v for r, v in LEAST_BY_RANK.items() if r <= 17}
    assert derive_sequences(rank17_table).rank_firsts == {0: 1, **published}
    # that table's columns, byte for byte (the complexity column is also
    # the unranked build's)
    t = rank17_table
    assert [hashlib.sha1(col).hexdigest() for col in (t.complexity, t.rank)] == [
        "dd02b24ab73476b577e23bed7b44da2a4e584630", "e315dd07aa71c28df68040c281b7a8f337f686f5"]


def test_chains_match_published(desk_seq):
    # every k with a least value: the chain is 4 long exactly for the
    # published members, and longer exactly where CHAIN_LONG says
    covered = len(desk_seq.smallest)
    lengths = {r.n: r.length for r in chain_scan(desk_seq)}
    assert sorted(lengths) == list(range(1, covered + 1))
    assert {k for k, n in lengths.items() if n == 4} == {
        k for k in CHAIN4_COMPLEXITIES if k <= covered
    }
    assert {k: n for k, n in lengths.items() if n > 4} == {
        k: n for k, n in CHAIN_LONG.items() if k <= covered
    }


def test_configuration_errors(capsys, tmp_path):
    with pytest.raises(ValueError):
        build(0)
    # a table larger than physical memory, or one whose values could exceed
    # a byte's half, is refused before any allocation
    out = str(tmp_path / "big.icx")
    for limit, error in ((10**12, "physical memory"), (10**13, "one-byte complexity storage")):
        for algo in ("sieve", "dp"):
            assert main(["build", "--algo", algo, "--limit", str(limit), "--out", out]) == 2
            assert error in capsys.readouterr().err
