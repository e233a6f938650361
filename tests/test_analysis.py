import argparse
import math
import random
import statistics
import sys
import tracemalloc

import numpy as np
import pytest

import reference_analysis
from golden import COLLAPSE_POWER, COMPOSITE_LEAST, MERSENNE_EXCESS, TOP_LOG
from intcomplexity import analysis as an
from intcomplexity import cli, reporting
from intcomplexity.core import (LN3, ComplexityTable, blocks, defect, max_expressible,
                                second_max_expressible)
from intcomplexity.dp import build
from intcomplexity.enumerator import oracle_complexity
from intcomplexity.expr import ONE, infix, postfix_emit
from intcomplexity.primality import is_prime, primes_up_to


# -- derived sequences ---------------------------------------------------


def test_sequence_examples(sieve_50k):
    seq = an.derive_sequences(sieve_50k)
    assert seq.smallest[11] == 23
    assert seq.smallest[26] == 1439
    assert seq.rank_firsts[9] == 1439


def test_sequence_reliability_bounds(sieve_50k):
    seq = an.derive_sequences(sieve_50k)
    assert seq.reliable_largest_max == max(
        k for k in range(1, 60) if max_expressible(k) <= 50_000
    )
    # every least value found is reliable: the keys run without a gap
    assert list(seq.smallest) == list(range(1, len(seq.smallest) + 1))
    assert list(seq.rank_firsts) == list(range(len(seq.rank_firsts)))


def test_sequence_matches_closed_forms(sieve_50k):
    seq = an.derive_sequences(sieve_50k)
    for k in range(1, seq.reliable_largest_max + 1):
        assert seq.largest[k] == max_expressible(k)
    for k in range(8, seq.reliable_largest_max + 1):
        assert seq.second_largest[k] == second_max_expressible(k)
        assert 9 * seq.second_largest[k] == 8 * seq.largest[k]


def test_sequence_monotone(sieve_50k):
    seq = an.derive_sequences(sieve_50k)
    ks = sorted(seq.smallest)
    vals = [seq.smallest[k] for k in ks]
    assert vals == sorted(vals)
    evals = [seq.largest[k] for k in range(1, seq.reliable_largest_max + 1)]
    assert evals == sorted(evals)
    for k in range(1, seq.reliable_largest_max + 1):
        if k in seq.smallest:
            assert seq.smallest[k] <= seq.largest[k]


def test_rank_sequence_requires_ranks(dp_5k):
    seq = an.derive_sequences(dp_5k)
    assert seq.rank_firsts is None


def test_least_values_prime_except_known(sieve_50k):
    seq = an.derive_sequences(sieve_50k)
    for k in sorted(seq.smallest):
        expect_composite = k in COMPOSITE_LEAST
        assert is_prime(seq.smallest[k]) != expect_composite, k


def test_log_complexity_dominated_by_least_value(sieve_50k):
    c = np.frombuffer(sieve_50k.complexity, dtype=np.uint8)
    seq = an.derive_sequences(sieve_50k)
    n = np.arange(2, sieve_50k.limit + 1, dtype=np.float64)
    logc = c[2:] * LN3 / np.log(n)
    for k, e in seq.smallest.items():
        if e < 2:
            continue
        mask = c[2:] == k
        assert logc[mask].max() <= k * LN3 / math.log(e) + 1e-12


# -- reconstruction -------------------------------------------------------


def test_reconstruct_examples(sieve_50k):
    t = an.reconstruct(sieve_50k, 10)
    assert t.value == 10 and t.ones == 7
    assert an.reconstruct(sieve_50k, 1) is ONE
    t = an.reconstruct(sieve_50k, 14)
    assert t.ones == 8 and t.height == 4


def test_reconstruct_consistency(sieve_50k):
    limit = sys.getrecursionlimit()
    rec = an.Reconstructor(sieve_50k)
    for n in range(1, 501):
        mh = rec.tree_min_height(n)
        assert mh.ones == sieve_50k.value(n)
        assert mh.height == sieve_50k.rank_of(n) == rec.min_height(n)
    assert sys.getrecursionlimit() == limit


def test_reconstruct_at_default_recursion_limit(desk_table):
    # the recursion is a few frames per unit of f(n) deep
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for n in range(desk_table.limit - 4, desk_table.limit + 1):
            _, rows = cli.expr_rows(an, desk_table, argparse.Namespace(n=n))
            _, ones, height, infix_text, postfix_text = rows[0]
            assert ones == desk_table.value(n) and height == desk_table.rank_of(n)
            assert infix_text and postfix_text
    finally:
        sys.setrecursionlimit(limit)


def test_min_height_trees_are_oracle_trees(sieve_5k):
    # the tie-breaks pick one of the oracle's shortest trees, of least height
    rec = an.Reconstructor(sieve_5k)
    for n in range(1, 301):
        res = oracle_complexity(n)
        tree = rec.tree_min_height(n)
        assert tree in res.shortest, (n, infix(tree), postfix_emit(tree))
        assert tree.height == res.min_height, n


def test_reconstruct_errors(sieve_50k):
    with pytest.raises(ValueError):
        an.reconstruct(sieve_50k, 0)
    with pytest.raises(ValueError):
        an.reconstruct(sieve_50k, 50_001)
    # f(10) = 3 leaves 10 without a tight split: a corrupt table, not a
    # failed assertion
    comp = bytearray(sieve_50k.complexity[:1001])
    comp[10] = 3
    broken = an.ComplexityTable(limit=1000, complexity=bytes(comp))
    with pytest.raises(ValueError, match="^10 has no tight split .*table corrupt"):
        an.reconstruct(broken, 10)
    with pytest.raises(ValueError, match="^10 has no tight split .*table corrupt"):
        an.Reconstructor(broken).min_height(10)
    with pytest.raises(ValueError, match=r"^10 has no tight \* split .*table corrupt"):
        an.Reconstructor(broken).tree(10, "*")


def test_rebuilt_trees_hold_the_table_value_on_damaged_tables(sieve_5k):
    # each op node joins the pieces of a tight split, so a tree, when one
    # is rebuilt at all, holds f(n) ones whatever the table holds
    rng = random.Random(1)
    trees = refusals = 0
    for _ in range(20):
        comp = bytearray(sieve_5k.complexity[:3001])
        for n in rng.sample(range(2, 3001), 30):
            comp[n] = max(0, comp[n] + rng.choice((-2, -1, 1, 2)))
        t = ComplexityTable(limit=3000, complexity=bytes(comp))
        for n in rng.sample(range(1, 3001), 40):
            try:
                tree = an.Reconstructor(t).tree_min_height(n)
            except (ValueError, RecursionError):
                refusals += 1
                continue
            assert tree.ones == t.value(n) and tree.value == n, n
            trees += 1
    assert trees > 700 and refusals > 0


# -- verification checks ---------------------------------------------------


def test_power_checks_pass(sieve_50k):
    for kind in ("pow2", "pow3", "pow235"):
        rep = an.check_products(sieve_50k, kind)
        assert rep.passed, rep.counterexamples[:3]
        assert rep.checked > 0
    with pytest.raises(ValueError):
        an.check_products(sieve_50k, "pow7")


def test_power_checks_catch_errors(sieve_50k):
    comp = bytearray(sieve_50k.complexity)
    comp[64] = 13  # pretend 2^6 needs 13 ones
    broken = an.ComplexityTable(limit=sieve_50k.limit, complexity=bytes(comp))
    rep = an.check_products(broken, "pow2")
    assert not rep.passed
    assert {"n": 64, "expected": 12, "actual": 13} in rep.counterexamples


def test_pow2_plus1(sieve_50k):
    rep = an.check_pow2_plus1(sieve_50k)
    assert rep.passed
    assert sieve_50k.value(9) == 6
    assert sieve_50k.value(513) == 18


def test_prime_plus1(sieve_50k):
    rep = an.check_prime_plus1(sieve_50k)
    assert rep.passed
    assert rep.checked == 5133  # primes below 50000


def test_defect_rank(sieve_50k):
    rep = an.check_defect_rank(sieve_50k)
    assert rep.passed and rep.details["violations"] == 0
    with pytest.raises(ValueError):
        an.check_defect_rank(an.ComplexityTable(limit=2, complexity=b"\x00\x01\x02"))


def test_defect_rank_example_values(sieve_50k):
    d = defect(1439, sieve_50k.value(1439))
    rhs = ((sieve_50k.rank_of(1439) - 1) // 2) * an._DEFECT_RANK_COEF
    assert d == pytest.approx(6.14, abs=0.01)
    assert rhs == pytest.approx(2.32, abs=0.01)
    assert d >= rhs


def test_mersenne_table(sieve_50k, desk_table):
    for t, last in ((sieve_50k, 15), (desk_table, 20)):
        rep = an.mersenne_table(t)
        assert rep.passed
        n = 1
        while 2**n - 1 <= t.limit:
            assert t.value(2**n - 1) - 2 * n == MERSENNE_EXCESS[n]
            n += 1
        assert n == last + 1  # every n with 2^n - 1 <= limit was read


def test_mersenne_counterexamples(sieve_50k):
    # A(8) raised from 1 to 6 and B(5) lowered from 1 to -3: each of the
    # five facts fails at least once
    comp = bytearray(sieve_50k.complexity)
    comp[2**8 - 1] += 5
    comp[2**5 + 1] -= 4
    rep = an.mersenne_table(an.ComplexityTable(limit=sieve_50k.limit, complexity=bytes(comp)))
    assert (rep.passed, rep.checked) == (False, 43)
    assert rep.counterexamples == [
        {"fact": "excess-bound", "n": 8, "excess": 6, "bound": 1},
        {"fact": "double", "n": 4, "lhs": 6, "rhs": 1},
        {"fact": "double", "n": 5, "lhs": 2, "rhs": -2},
        {"fact": "triple", "n": 5, "lhs": 2, "rhs": -1},
        {"fact": "step", "n": 7, "lhs": 6, "rhs": 2},
        {"fact": "power-of-two-exponent", "k": 3, "excess": 6, "expected": 1},
    ]
    assert [list(ce) for ce in rep.counterexamples[:2]] == [
        ["fact", "n", "excess", "bound"], ["fact", "n", "lhs", "rhs"]]
    # the facts read only the 2^n -+ 1 inside the table
    cut = [an.ComplexityTable(limit=limit, complexity=sieve_50k.complexity[: limit + 1])
           for limit in (1, 3, 32766, 32767)]
    assert [an.mersenne_table(t).checked for t in cut] == [0, 4, 40, 43]


# -- scans -----------------------------------------------------------------


def test_collapse_scan(sieve_50k, desk_table):
    # the primes below the bound: a prime bound is left out
    assert [r.p for r in an.collapse_scan(sieve_50k, 7)] == [2, 3, 5]
    assert [r.p for r in an.collapse_scan(sieve_50k, 8)] == [2, 3, 5, 7]
    recs = {r.p: r for r in an.collapse_scan(sieve_50k, 150)}
    assert recs[5].collapses_at == 6
    assert recs[11].collapses_at == 2
    assert recs[3].collapses_at is None
    assert recs[2].collapses_at is None
    for p, k in COLLAPSE_POWER.items():
        if p <= 150 and p**k <= 50_000:
            assert recs[p].collapses_at == k, p
    # every known exponent whose power lies inside the desk table
    recs = {r.p: r for r in an.collapse_scan(desk_table, 1000)}
    known = {p: k for p, k in COLLAPSE_POWER.items() if p**k <= desk_table.limit}
    assert {p: recs[p].collapses_at for p in known} == known
    assert {631, 653, 881, 977} <= known.keys()


def test_collapse_consistent_below(sieve_50k):
    for r in an.collapse_scan(sieve_50k, 60):
        top = r.collapses_at - 1 if r.collapses_at else r.checked_up_to
        for j in range(1, top + 1):
            assert sieve_50k.value(r.p**j) == j * r.complexity


def test_first_operation_classify(sieve_50k):
    for n in (1, 50_001):
        with pytest.raises(ValueError, match=r"outside classification range \[2, 50000\]"):
            an.classify_first_operation(sieve_50k, n)
    assert an.classify_first_operation(sieve_50k, 6).classification == "product"
    assert an.classify_first_operation(sieve_50k, 7).classification == "sub1"
    rec = an.classify_first_operation(sieve_50k, 7)
    assert not rec.has_product_decomposition
    assert rec.minimal_addend == 1


def test_first_operation_scan_empty(sieve_50k):
    assert an.first_operation_scan(sieve_50k) == []


def _first_operation_reference(t):
    """Classify every n with f(n) != f(n-1) + 1 one by one."""
    c = np.frombuffer(t.complexity, dtype=np.uint8)
    out = []
    for n in np.nonzero(c[2:] != c[1:-1] + 1)[0] + 2:
        rec = an.classify_first_operation(t, int(n))
        if rec.classification not in ("product", "sub1"):
            out.append(rec)
    return out


def _perturbed(t, seed=0, count=200):
    """Lower some primes by 1 and some n by 2, so that sum splits survive."""
    rng = random.Random(seed)
    comp = bytearray(t.complexity)
    for p in rng.sample(primes_up_to(t.limit)[10:], count):
        comp[p] -= 1
    for n in rng.sample(range(20, t.limit + 1), count):
        comp[n] -= 2
    return ComplexityTable(limit=t.limit, complexity=bytes(comp))


def _forced_sums(t, addends=(6, 8, 9)):
    """Raise one prime n per addend j to f(j) + f(n - j) where no smaller
    addend gives that value: its least tight split adds j, and neither a +1
    nor a product split is tight."""
    comp = bytearray(t.complexity)
    primes = iter(primes_up_to(t.limit)[1000:])
    for j in addends:
        for n in primes:
            v = comp[j] + comp[n - j]
            if all(comp[a] + comp[n - a] != v for a in range(1, j)):
                comp[n] = v
                break
    return ComplexityTable(limit=t.limit, complexity=bytes(comp))


def _cut_blocks(first, last):
    """The passes' blocks, cut at every multiple of 777 too: many blocks,
    ending at arbitrary n."""
    return blocks(first, last, 777)


@pytest.mark.parametrize("cut", [None, 777])
def test_first_operation_scan_matches_per_n(sieve_50k, monkeypatch, cut):
    if cut:
        monkeypatch.setattr(an, "blocks", _cut_blocks)
    assert an.first_operation_scan(sieve_50k) == _first_operation_reference(sieve_50k)
    broken = _perturbed(sieve_50k)
    got = an.first_operation_scan(broken)
    assert got == _first_operation_reference(broken)
    assert any(r.classification == "sub_other" for r in got)
    assert any(r.minimal_addend is not None for r in got)
    forced = _forced_sums(sieve_50k)
    got = an.first_operation_scan(forced)
    assert got == _first_operation_reference(forced)
    assert {"sub6", "sub8", "sub9"} <= {r.classification for r in got}


# -- chains ------------------------------------------------------------------


def test_chain_scan(sieve_50k):
    seq = an.derive_sequences(sieve_50k)
    recs = {r.n: r for r in an.chain_scan(seq)}
    assert recs[13].chain == [2, 5, 11, 23, 47]
    assert recs[13].length == 5
    assert recs[26].chain == [89, 179, 359, 719, 1439]
    assert recs[27].length == 6
    assert recs[4].end == 4 and not recs[4].end_is_prime and recs[4].chain == []
    assert recs[11].length == 4 and recs[11].chain == [2, 5, 11, 23]


def test_chain_near_prime_flags(sieve_50k):
    seq = an.derive_sequences(sieve_50k)
    recs = {r.n: r for r in an.chain_scan(seq)}
    # 47: (47-1)/2 = 23 prime, (47-2)/3 = 15 composite, (47-3)/4 = 11 prime
    assert recs[13].near_prime == {1: True, 2: False, 3: True}
    # 10: end 22: (22-1)/2 not integral, (22-2)/3 not integral, (22-3)/4 not integral
    assert recs[10].near_prime == {1: None, 2: None, 3: None}


# -- fit ----------------------------------------------------------------------


def test_fit_collinear_points():
    smallest = {k: 3 ** (2 * k) for k in range(1, 13)}  # log3 = 2k exactly
    seq = an.SequenceSet(
        limit=10**12,
        smallest=smallest,
        largest={},
        second_largest={},
        rank_firsts=None,
        reliable_largest_max=0,
    )
    fit = an.fit_e_asymptote(seq)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-9)
    assert all(abs(r) < 1e-9 for r in fit.residuals.values())


def test_fit_orthogonality(sieve_50k):
    seq = an.derive_sequences(sieve_50k)
    fit = an.fit_e_asymptote(seq)
    res = np.array([fit.residuals[k] for k in sorted(fit.residuals)])
    ks = np.array(sorted(fit.residuals), dtype=np.float64)
    assert abs(res.sum()) < 1e-9
    assert abs((res * ks).sum()) < 1e-9


def test_fit_is_statistics_linear_regression(sieve_50k, desk_seq):
    # the fit's own fsum sums are those of statistics.linear_regression
    for seq in (an.derive_sequences(sieve_50k), desk_seq):
        fit = an.fit_e_asymptote(seq)
        ks = sorted(seq.smallest)
        want = statistics.linear_regression(ks, [math.log(seq.smallest[k]) / LN3 for k in ks])
        assert (fit.slope, fit.intercept) == (want.slope, want.intercept)


def test_records_cannot_be_assigned(sieve_50k):
    seq = an.derive_sequences(sieve_50k)
    records = [
        seq,
        an.fit_e_asymptote(seq),
        an.chain_scan(seq)[0],
        an.collapse_scan(sieve_50k, 10)[0],
        an.classify_first_operation(sieve_50k, 1439),
        an.top_log_complexity(sieve_50k, 1)[0],
        an.check_pow2_plus1(sieve_50k),
        oracle_complexity(23),
    ]
    for rec in records:
        with pytest.raises(AttributeError):
            rec.note = 0  # no attribute beyond the fields
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], None)


def test_fit_needs_points():
    seq = an.SequenceSet(
        limit=10**12,
        smallest={k: 3**k for k in range(1, 10)},
        largest={},
        second_largest={},
        rank_firsts=None,
        reliable_largest_max=0,
    )
    with pytest.raises(ValueError):
        an.fit_e_asymptote(seq)


# -- top log complexity ---------------------------------------------------------


def test_top_log_16(sieve_50k):
    entries = an.top_log_complexity(sieve_50k, 16)
    assert len(entries) == 16
    for entry, (n, c, printed, rank) in zip(entries, TOP_LOG):
        assert entry.n == n
        assert entry.complexity == c
        assert entry.rank == rank
        # reference values are 3-decimal prints, some rounded, some truncated
        assert -5e-4 <= entry.log_complexity - printed <= 1e-3
        assert entry.unique


class _Finds(bytes):
    """A column that records the value of each ``find``."""

    def find(self, value, *args):
        self.values.append(value)
        return super().find(value, *args)


def test_top_log_searches_up_to_the_first_missing_complexity(sieve_50k):
    column = _Finds(sieve_50k.complexity)
    column.values = []
    t = ComplexityTable(limit=sieve_50k.limit, complexity=column, rank=sieve_50k.rank)
    assert an.top_log_complexity(t, 16) == an.top_log_complexity(sieve_50k, 16)
    assert column.values and max(column.values) <= max(column) + 1


def test_top_log_ordering(sieve_50k):
    entries = an.top_log_complexity(sieve_50k, 50)
    vals = [e.log_complexity for e in entries]
    assert vals == sorted(vals, reverse=True)
    with pytest.raises(ValueError):
        an.top_log_complexity(sieve_50k, 0)


# -- against the whole-column references ------------------------------------


def _reference_tables(t, desk_table=None):
    """Limits 1 and 2, t, t with lowered values, and the desk table."""
    tables = [build(1, ranks=True), build(2, ranks=True), t, _perturbed(t)]
    return tables + [desk_table] if desk_table else tables


def test_sequences_match_whole_column_reference(sieve_50k, desk_table):
    for t in _reference_tables(sieve_50k, desk_table):
        assert an.derive_sequences(t) == reference_analysis.derive_sequences(t), t.limit


def test_top_log_matches_whole_column_reference(sieve_5k, sieve_50k, desk_table):
    cases = [(t, count) for t in _reference_tables(sieve_50k, desk_table) for count in (1, 16, 50)]
    cases += [(t, t.limit + 5) for t in _reference_tables(sieve_5k)]  # every n >= 2
    for t, count in cases:
        got = an.top_log_complexity(t, count)
        want = reference_analysis.top_log_complexity(t, count)
        fields = [[(e.n, e.complexity, e.rank, e.unique) for e in es] for es in (got, want)]
        assert fields[0] == fields[1], (t.limit, count)
        # math.log and numpy's log may differ in the last place
        assert [e.log_complexity for e in got] == pytest.approx(
            [e.log_complexity for e in want], rel=1e-15, abs=0
        )


def test_prime_plus1_matches_whole_column_reference(sieve_50k, monkeypatch):
    monkeypatch.setattr(an, "blocks", _cut_blocks)
    edge = build(3 * 777, ranks=True)  # its last block ends at a cut, the limit
    tables = [build(1), build(2), build(3), edge, sieve_50k, _perturbed(sieve_50k)]
    for t in tables:
        rep = an.check_prime_plus1(t)
        checked, counterexamples = reference_analysis.prime_plus1(t)
        assert (rep.checked, rep.counterexamples) == (checked, counterexamples), t.limit
        assert rep.passed == (not counterexamples)
    assert len(rep.counterexamples) > 100  # the perturbed table's


def test_defect_rank_matches_whole_column_reference(sieve_50k, monkeypatch):
    monkeypatch.setattr(an, "blocks", _cut_blocks)
    lowered = _perturbed(sieve_50k, count=2000)
    t = ComplexityTable(limit=lowered.limit, complexity=lowered.complexity, rank=sieve_50k.rank)
    rep = an.check_defect_rank(t)
    violations, first = reference_analysis.defect_rank_violations(t)
    assert violations > 100 and not rep.passed
    assert rep.details["violations"] == violations
    assert len(rep.counterexamples) == len(first) == 100
    for got, want in zip(rep.counterexamples, first):
        assert (got["n"], got["rank"]) == (want["n"], want["rank"])
        for key in ("defect", "bound"):
            assert reporting.fmt_real(got[key]) == reporting.fmt_real(want[key])


@pytest.mark.parametrize(
    "analysis, most",
    # a copy of a column would be 1 B/entry, and the whole-column versions held
    # 2, 40, 49 and 1.5; a block's flags are 32 * sqrt(limit) bytes, 0.023 B/entry
    [(an.derive_sequences, 0.02), (lambda t: an.top_log_complexity(t, 16), 0.05),
     (an.check_defect_rank, 0.05), (an.check_prime_plus1, 0.05), (an.first_operation_scan, 0.05)],
    ids=["derive_sequences", "top_log_complexity", "check_defect_rank", "check_prime_plus1",
         "first_operation_scan"],
)
def test_analyses_hold_no_whole_column_arrays(desk_table, analysis, most):
    analysis(desk_table)  # imports happen outside the trace
    tracemalloc.start()
    try:
        analysis(desk_table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < most * desk_table.limit
