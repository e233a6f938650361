"""Correctness checks applied to the program's outputs.

Nothing here calls the program's builders or analyses.  Every expected
value is either a published constant from ``tests/golden.py`` or is
computed below from the definitions.  Each check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
from pathlib import Path

import numpy as np

LN3 = math.log(3.0)
# paper's defect-rank bound: d(n) >= floor((rank - 1) / 2) * (1 + 3 log3(6/7))
RANK_COEF = 1.0 + 3.0 * math.log(6.0 / 7.0) / LN3
# float comparisons closer than this are decided again in exact integers
BORDER = 1e-6
MAX_PROBLEMS = 5
# TOP_LOG prints three decimals, neither all rounded nor all truncated
# (4283 reads 3.809 for 3.80988), so a value may differ by one unit there
PRINTED_TOL = 1e-3 + 1e-9


def load_golden(root: Path):
    spec = importlib.util.spec_from_file_location("golden", root / "tests" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def prime_mask(n: int) -> np.ndarray:
    """mask[i] is True exactly when i is prime, for 0 <= i <= n."""
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def first_index(values: np.ndarray) -> dict[int, int]:
    """Value -> least n at which it occurs, for an array indexed from n = 1."""
    keys, idx = np.unique(values[1:], return_index=True)
    return {int(k): int(i) + 1 for k, i in zip(keys, idx)}


# -- tables ---------------------------------------------------------------


def bellman(f: np.ndarray, ns) -> list[str]:
    """f(n) = min(f(a) + f(n-a) for every 1 <= a <= n/2,
    f(d) + f(n/d) for every divisor 2 <= d <= sqrt n)."""
    bad = []
    for n in ns:
        h = n // 2
        best = int((f[1 : h + 1] + f[n - h : n][::-1]).min())
        d = np.arange(2, math.isqrt(n) + 1)
        d = d[n % d == 0]
        if len(d):
            best = min(best, int((f[d] + f[n // d]).min()))
        if int(f[n]) != best:
            bad.append(f"bellman: f({n}) = {int(f[n])}, best split gives {best}")
    return bad


def max_expressible(k: np.ndarray) -> np.ndarray:
    """E(k), the largest number k ones express: 3^m, 4 * 3^(m-1) or 2 * 3^m for k = 3m, 3m+1, 3m+2."""
    m, r = np.divmod(k.astype(np.int64), 3)
    e = np.where(r == 1, 4 * 3 ** np.maximum(m - 1, 0), 3**m * np.where(r == 2, 2, 1))
    return np.where(k == 1, 1, e)


def recompute(f: np.ndarray) -> list[str]:
    """f(n) = min(f(n-1) + 1, f(d) + f(n/d), f(a) + f(n-a)) for every n >= 2.

    The sums run over 2 <= a <= cap(n) only.  A minimal split n = a + b
    with a <= b has a b <= E(f(a)) E(f(b)) <= E(f(n)), so a(n - a) <= E(f(n)).
    With f(1) = 1 this proves the whole table; it catches a wrong entry
    whether it is too high or too low.
    """
    limit = len(f) - 1
    f = f.astype(np.int64)
    n = np.arange(limit + 1, dtype=np.int64)
    g = f.copy()
    g[2:] = f[1:-1] + 1
    for d in range(2, math.isqrt(limit) + 1):
        tgt = g[d * d :: d]
        np.minimum(tgt, f[d] + f[d : limit // d + 1], out=tgt)
    # f above 3 log2 n fails bounds(); capping it here keeps the scan short
    ub = np.floor(3.0 * np.log2(np.maximum(n, 1)) + 1e-9).astype(np.int64)
    disc = n * n - 4 * max_expressible(np.minimum(f, np.maximum(ub, 1)))
    d = np.maximum(disc, 0)
    s = np.sqrt(d.astype(np.float64)).astype(np.int64)
    s -= s * s > d
    s += (s + 1) * (s + 1) <= d
    cap = np.where(disc < 0, n // 2, (n - s - (s * s < d)) // 2)
    big = np.int64(2**62)
    for a in range(2, int(cap[2:].max(initial=0)) + 1):
        tgt = g[2 * a :]
        np.minimum(tgt, np.where(cap[2 * a :] >= a, f[a] + f[a : limit - a + 1], big), out=tgt)
    bad = np.nonzero(g[2:] != f[2:])[0][:MAX_PROBLEMS] + 2
    return [f"recompute: f({int(i)}) = {int(f[i])}, its splits give {int(g[i])}" for i in bad]


def bounds(f: np.ndarray) -> list[str]:
    """3 log3 n <= f(n) <= 3 log2 n for n >= 2; exactly 2^f <= n^3 <= 3^f."""
    n = np.arange(2, len(f), dtype=np.float64)
    fv = f[2:].astype(np.float64)
    lo = 3.0 * np.log(n) / LN3
    hi = 3.0 * np.log2(n)
    near = (np.abs(fv - lo) <= BORDER) | (np.abs(fv - hi) <= BORDER)
    bad_idx = set(np.nonzero(((fv < lo) | (fv > hi)) & ~near)[0].tolist())
    for i in np.nonzero(near)[0].tolist():
        m, c = i + 2, int(f[i + 2])
        if not 2**c <= m**3 <= 3**c:
            bad_idx.add(i)
    return [f"bounds: f({i + 2}) = {int(f[i + 2])} outside [3 log3 n, 3 log2 n]"
            for i in sorted(bad_idx)[:MAX_PROBLEMS]]


def rank_bound(f: np.ndarray, r: np.ndarray) -> list[str]:
    """Defect-rank bound for n >= 2, in exact integers near equality:
    3^(f-m) * 7^(3m) >= n^3 * 6^(3m) with m = floor((rank - 1) / 2)."""
    n = np.arange(2, len(f), dtype=np.float64)
    m = (r[2:] - 1) // 2
    diff = f[2:] - 3.0 * np.log(n) / LN3 - m * RANK_COEF
    near = np.abs(diff) <= BORDER
    bad_idx = set(np.nonzero((diff < 0) & ~near)[0].tolist())
    for i in np.nonzero(near)[0].tolist():
        k, c, mm = i + 2, int(f[i + 2]), int(m[i])
        if 3 ** (c - mm) * 7 ** (3 * mm) < k**3 * 6 ** (3 * mm):
            bad_idx.add(i)
    return [f"rank bound: n = {i + 2}, f = {int(f[i + 2])}, rank = {int(r[i + 2])}"
            for i in sorted(bad_idx)[:MAX_PROBLEMS]]


def top_log(f: np.ndarray, count: int) -> list[tuple[int, float]]:
    """The count largest f(n) / log3 n over 2 <= n <= limit, ties toward small n."""
    n = np.arange(2, len(f))
    v = f[2:] * LN3 / np.log(n)
    order = np.lexsort((n, -v))[:count]
    return [(int(n[i]), float(v[i])) for i in order]


def published(f: np.ndarray, r: np.ndarray | None, golden) -> list[str]:
    """Published values that fall inside the table."""
    limit = len(f) - 1
    bad = []
    head = [int(x) for x in f[1 : min(15, limit) + 1]]
    if head != golden.FIRST_FIFTEEN[: len(head)]:
        bad.append(f"FIRST_FIFTEEN: table has {head}")
    firsts = first_index(f)
    for k, v in golden.LEAST_VALUE.items():
        if firsts.get(k) != (v if v <= limit else None):
            bad.append(f"LEAST_VALUE[{k}] = {v}, table's least is {firsts.get(k)}")
    for e, excess in golden.MERSENNE_EXCESS.items():
        m = 2**e - 1
        if m <= limit and int(f[m]) - 2 * e != excess:
            bad.append(f"MERSENNE_EXCESS[{e}] = {excess}, table gives {int(f[m]) - 2 * e}")
    want = [row for row in golden.TOP_LOG if row[0] <= limit]
    for (n, c, printed, rank), (got_n, got_v) in zip(want, top_log(f, len(want))):
        if (got_n, int(f[got_n])) != (n, c) or abs(got_v - printed) > PRINTED_TOL:
            bad.append(f"TOP_LOG: expected ({n}, {c}, {printed}), table has ({got_n}, {int(f[got_n])}, {got_v:.4f})")
        elif r is not None and int(r[n]) != rank:
            bad.append(f"TOP_LOG: rank({n}) = {int(r[n])}, published {rank}")
    if r is not None:
        rfirsts = first_index(r)
        for k, v in golden.LEAST_BY_RANK.items():
            if rfirsts.get(k) != (v if v <= limit else None):
                bad.append(f"LEAST_BY_RANK[{k}] = {v}, table's least is {rfirsts.get(k)}")
    return bad


def table(tbl, limit: int, ranked: bool, sample, golden) -> list[str]:
    """Every table check; ``sample`` lists the n given the full Bellman scan."""
    if tbl.limit != limit or tbl.has_ranks != ranked:
        return [f"table shape: limit {tbl.limit}, ranks {tbl.has_ranks}; "
                f"expected limit {limit}, ranks {ranked}"]
    f = np.frombuffer(tbl.complexity, dtype=np.uint8).astype(np.int32)
    r = np.frombuffer(tbl.rank, dtype=np.uint8).astype(np.int32) if ranked else None
    bad = [] if f[1] == 1 else [f"f(1) = {int(f[1])}"]
    bad += bellman(f, sample) + recompute(f) + bounds(f) + published(f, r, golden)
    if ranked:
        bad += rank_bound(f, r)
    return bad


# -- desk report ------------------------------------------------------------


def _typed(cell):
    """A csv cell or json value as bool, number, None or str."""
    if cell is None or isinstance(cell, (bool, int, float)):
        return cell
    if cell == "":
        return None
    if cell in ("true", "false"):
        return cell == "true"
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def _same(a, b) -> bool:
    a, b = _typed(a), _typed(b)
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a is b
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-12)


def _rows(outdir: Path, name: str) -> list[dict]:
    """Rows of name.csv, after checking that name.json holds the same rows."""
    with open(outdir / f"{name}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(outdir / f"{name}.json") as fh:
        doc = json.load(fh)
    if len(doc) != len(rows) or any(
        set(j) != set(c) or not all(_same(c[k], j[k]) for k in c) for c, j in zip(rows, doc)
    ):
        raise ValueError(f"{name}.csv and {name}.json hold different rows")
    return [{k: _typed(v) for k, v in row.items()} for row in rows]


def _json_stream(text: str) -> list:
    dec = json.JSONDecoder()
    out, i = [], 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        obj, i = dec.raw_decode(text, i)
        out.append(obj)
    return out


def least_fit(golden, ks: list[int]) -> tuple[float, float]:
    """Least-squares line through (k, log3 LEAST_VALUE[k])."""
    x = [float(k) for k in ks]
    y = [math.log(golden.LEAST_VALUE[k]) / LN3 for k in ks]
    xbar, ybar = sum(x) / len(x), sum(y) / len(y)
    slope = sum((a - xbar) * (b - ybar) for a, b in zip(x, y)) / sum((a - xbar) ** 2 for a in x)
    return slope, ybar - slope * xbar


def desk_report(outdir: Path, f: np.ndarray, r: np.ndarray, golden) -> list[str]:
    """Checks of every file scripts/run_desk_scale.py writes for a ranked table f, r."""
    try:
        return _desk_report(outdir, f, r, golden)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"desk report: {type(exc).__name__}: {exc}"]


def _desk_report(outdir: Path, f: np.ndarray, r: np.ndarray, golden) -> list[str]:
    limit = len(f) - 1
    bad = []
    # complexities k whose least value lies in the table; contiguous from 1
    ks = sorted(k for k, v in golden.LEAST_VALUE.items() if v <= limit)

    seq = _rows(outdir, "sequences")
    smallest = {row["k"]: row for row in seq if row["sequence"] == "smallest"}
    if sorted(k for k, row in smallest.items() if row["reliable"]) != ks:
        bad.append("sequences: reliable least values do not cover exactly the published ones in range")
    bad += [f"sequences: smallest[{k}] = {smallest.get(k, {}).get('value')}, A005520 gives {golden.LEAST_VALUE[k]}"
            for k in ks if smallest.get(k, {}).get("value") != golden.LEAST_VALUE[k]]
    rank_first = {row["k"]: row["value"] for row in seq if row["sequence"] == "rank_first"}
    bad += [f"sequences: rank_first[{k}] = {rank_first.get(k)}, published {v}"
            for k, v in golden.LEAST_BY_RANK.items() if v <= limit and rank_first.get(k) != v]

    with open(outdir / "verify.json") as fh:
        reports = _json_stream(fh.read())
    if len(reports) < 7 or not all(rep.get("passed") is True for rep in reports):
        bad.append(f"verify: {len(reports)} reports, failed: "
                   f"{[rep.get('name') for rep in reports if rep.get('passed') is not True]}")

    collapse = _rows(outdir, "collapse")
    prime = prime_mask(limit)
    if [row["p"] for row in collapse] != np.nonzero(prime[:1000])[0].tolist():
        bad.append("collapse: rows are not the primes below 1000")
    for row in collapse:
        p = row["p"]
        k, pk = 2, p * p
        while pk <= limit and f[pk] >= k * f[p]:
            k, pk = k + 1, pk * p
        want = k if pk <= limit else None
        published_k = golden.COLLAPSE_POWER.get(p)
        if published_k is not None and want != (published_k if p**published_k <= limit else None):
            bad.append(f"collapse: table disagrees with COLLAPSE_POWER[{p}] = {published_k}")
        if (row["collapses_at"], row["complexity"], row["rank"]) != (want, int(f[p]), int(r[p])):
            bad.append(f"collapse: p = {p} reported {row['collapses_at']}, expected {want}")

    chains = _rows(outdir, "chains")
    if [row["k"] for row in chains] != ks:
        bad.append("chains: rows are not the reliable complexities")
    for row in chains:
        k, end = row["k"], row["end"]
        chain = [int(x) for x in str(row["chain"]).split("-")] if row["chain"] is not None else []
        want_len = golden.CHAIN_LONG.get(k, 4 if k in golden.CHAIN4_COMPLEXITIES else None)
        end_prime = k not in golden.COMPOSITE_LEAST
        ok = (end == golden.LEAST_VALUE.get(k) and row["end_is_prime"] is end_prime
              and row["length"] == len(chain)
              and (row["length"] == want_len if want_len else row["length"] <= 3)
              and (not end_prime or (chain[-1] == end and all(b == 2 * a + 1 for a, b in zip(chain, chain[1:]))
                                 and all(prime[p] for p in chain)
                                 and (chain[0] % 2 == 0 or not prime[(chain[0] - 1) // 2])))
              and (end_prime or not chain))
        if not ok:
            bad.append(f"chains: k = {k} row {row}")

    firstop = _rows(outdir, "firstop")
    if limit < golden.FIRST_SUB6 and firstop:
        bad.append(f"firstop: {len(firstop)} records below FIRST_SUB6")

    fit = _rows(outdir, "fit-e")
    slope, intercept = least_fit(golden, ks)
    if [row["k"] for row in fit] != ks:
        bad.append("fit-e: rows are not the reliable complexities")
    for row in fit:
        y = math.log(golden.LEAST_VALUE[row["k"]]) / LN3
        if not (math.isclose(row["slope"], slope, rel_tol=1e-5)
                and math.isclose(row["intercept"], intercept, rel_tol=1e-5)
                and math.isclose(row["log3_value"], y, rel_tol=1e-5, abs_tol=1e-9)):
            bad.append(f"fit-e: row {row}, expected slope {slope:.6g}, intercept {intercept:.6g}")
            break

    top = _rows(outdir, "top-log")
    want = [row for row in golden.TOP_LOG if row[0] <= limit]
    if len(top) != min(16, limit - 1):
        bad.append(f"top-log: {len(top)} rows")
    for row, (n, c, printed, rank) in zip(top, want):
        if ((row["n"], row["complexity"], row["rank"]) != (n, c, rank)
                or abs(row["log_complexity"] - printed) > PRINTED_TOL):
            bad.append(f"top-log: row {row}, published ({n}, {c}, {printed}, {rank})")
    return bad
