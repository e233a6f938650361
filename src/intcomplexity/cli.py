"""Command-line front door.

Subcommands: build, query, oracle, seq, verify, collapse, chains,
firstop, fit-e, top-log, expr.  Exit codes: 0 success (and every
checked fact holds in range), 1 a verification found counterexamples,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys

from . import analysis, reporting, storage
from .dp import build_dp
from .enumerator import oracle_complexity
from .expr import infix, postfix_emit
from .reporting import emit_report, emit_rows, fmt_real
from .sieve import build_sieve


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=reporting.FORMATS, default="text")


def _load(path: str):
    return storage.load_table(path)


def _cmd_build(args) -> int:
    if args.algo == "sieve":
        if args.checkpoint_every:
            raise ValueError("only the dp builder writes checkpoints")
        table = build_sieve(args.limit, with_ranks=args.ranks)
        storage.save(table, args.out)
    else:
        if args.ranks:
            raise ValueError("the dp builder does not produce ranks; use --algo sieve")
        table = build_dp(args.limit, checkpoint_every=args.checkpoint_every, out=args.out)
    print(
        f"built {args.algo} table to n = {table.limit}"
        f"{' with ranks' if table.rank is not None else ''}: {args.out}"
    )
    return 0


def _cmd_query(args) -> int:
    table = _load(args.table)
    n = args.n
    c = table.value(n)
    if table.has_ranks:
        r = table.rank_of(n)
    else:
        r = analysis.Reconstructor(table).min_height(n)
    if args.format == "json":
        sys.stdout.write(
            emit_rows(["n", "complexity", "rank"], [[n, c, r]], "json")
        )
    elif args.format == "csv":
        sys.stdout.write(emit_rows(["n", "complexity", "rank"], [[n, c, r]], "csv"))
    else:
        print(f"complexity {c}, rank {r}")
    return 0


def _cmd_oracle(args) -> int:
    res = oracle_complexity(args.n, ones_cap=args.max_ones)
    picks = res.shortest if args.all else [min(res.shortest, key=lambda t: (t.height, t.sort_key()))]
    if args.format == "text":
        print(f"n {res.n}: complexity {res.complexity}, rank {res.min_height}, "
              f"{len(res.shortest)} shortest expression(s)")
        for t in picks:
            print(f"  {infix(t)}  |  {postfix_emit(t)}  (height {t.height})")
    else:
        rows = [[res.n, res.complexity, res.min_height, infix(t), postfix_emit(t), t.height]
                for t in picks]
        sys.stdout.write(
            emit_rows(["n", "complexity", "rank", "infix", "postfix", "height"], rows, args.format)
        )
    return 0


def _cmd_seq(args) -> int:
    table = _load(args.table)
    seq = analysis.derive_sequences(table)
    headers = ["sequence", "k", "value", "reliable", "limit", "algorithm"]
    rows: list[list] = []
    for k in sorted(seq.smallest):
        rows.append(["smallest", k, seq.smallest[k], k <= seq.reliable_smallest_max,
                     seq.limit, seq.algorithm_tag])
    for k in sorted(seq.largest):
        rows.append(["largest", k, seq.largest[k], k <= seq.reliable_largest_max,
                     seq.limit, seq.algorithm_tag])
    for k in sorted(seq.second_largest):
        rows.append(["second_largest", k, seq.second_largest[k], k <= seq.reliable_largest_max,
                     seq.limit, seq.algorithm_tag])
    if seq.rank_firsts is not None:
        for k in sorted(seq.rank_firsts):
            rows.append(["rank_first", k, seq.rank_firsts[k],
                         k <= (seq.reliable_rank_max or 0), seq.limit, seq.algorithm_tag])
    sys.stdout.write(emit_rows(headers, rows, args.format))
    return 0


_VERIFY_KINDS = ("pow2", "pow3", "pow235", "pow2plus1", "prime-plus1", "mersenne", "defect-rank")


def _run_verify(table, kind: str) -> reporting.Report:
    if kind in ("pow2", "pow3", "pow235"):
        return analysis.check_products(table, kind)
    if kind == "pow2plus1":
        return analysis.check_pow2_plus1(table)
    if kind == "prime-plus1":
        return analysis.check_prime_plus1(table)
    if kind == "mersenne":
        return analysis.mersenne_table(table)
    if kind == "defect-rank":
        return analysis.check_defect_rank(table)
    raise ValueError(f"unknown verification {kind!r}")


def _cmd_verify(args) -> int:
    table = _load(args.table)
    kinds = list(_VERIFY_KINDS) if args.kind == "all" else [args.kind]
    if not table.has_ranks and "defect-rank" in kinds and args.kind == "all":
        kinds.remove("defect-rank")
    rc = 0
    for kind in kinds:
        report = _run_verify(table, kind)
        if kind == "mersenne":
            report.details = {k: v for k, v in report.details.items() if k != "rows"}
        fmt = "json" if args.format == "json" else "text"
        sys.stdout.write(emit_report(report, fmt))
        if not report.passed:
            rc = 1
    return rc


def _cmd_collapse(args) -> int:
    table = _load(args.table)
    recs = analysis.collapse_scan(table, args.primes_below)
    headers = ["p", "collapses_at", "checked_up_to", "complexity", "rank", "log_complexity"]
    rows = [[r.p, r.collapses_at, r.checked_up_to, r.complexity, r.rank, r.log_complexity]
            for r in recs]
    sys.stdout.write(emit_rows(headers, rows, args.format))
    return 0


def _cmd_chains(args) -> int:
    table = _load(args.table)
    seq = analysis.derive_sequences(table, include_rank_sequence=False)
    recs = analysis.chain_scan(seq)
    headers = ["k", "end", "end_is_prime", "chain", "length",
               "half_prime", "third_prime", "quarter_prime"]
    rows = [[r.n, r.end, r.end_is_prime, "-".join(map(str, r.chain)), r.length,
             r.near_prime[1], r.near_prime[2], r.near_prime[3]] for r in recs]
    sys.stdout.write(emit_rows(headers, rows, args.format))
    if args.format == "text" and recs:
        total = len(recs)
        for kk, label in ((1, "(e-1)/2"), ((2), "(e-2)/3"), ((3), "(e-3)/4")):
            hits = sum(1 for r in recs if r.near_prime[kk])
            print(f"{label} prime for {hits}/{total} reliable entries")
    return 0


def _cmd_firstop(args) -> int:
    table = _load(args.table)
    recs = analysis.first_operation_scan(table)
    headers = ["n", "has_product_decomposition", "minimal_addend", "classification"]
    rows = [[r.n, r.has_product_decomposition, r.minimal_addend, r.classification]
            for r in recs]
    sys.stdout.write(emit_rows(headers, rows, args.format))
    if args.format == "text":
        print(f"{len(rows)} forced-subtraction number(s) at limit {table.limit}")
    return 0


def _cmd_fit_e(args) -> int:
    table = _load(args.table)
    seq = analysis.derive_sequences(table, include_rank_sequence=False)
    fit = analysis.fit_e_asymptote(seq)
    headers = ["k", "log3_value", "fitted", "residual", "slope", "intercept"]
    rows = [[k, fit.residuals[k] + fit.slope * k + fit.intercept,
             fit.slope * k + fit.intercept, fit.residuals[k], fit.slope, fit.intercept]
            for k in sorted(fit.residuals)]
    if args.format == "text":
        print(f"slope {fmt_real(fit.slope)}, intercept {fmt_real(fit.intercept)}, "
              f"range {fit.n_range[0]}..{fit.n_range[1]}")
    sys.stdout.write(emit_rows(headers, rows, args.format))
    return 0


def _cmd_top_log(args) -> int:
    table = _load(args.table)
    entries = analysis.top_log_complexity(table, args.count)
    headers = ["n", "complexity", "log_complexity", "rank", "unique"]
    rows = [[e.n, e.complexity, e.log_complexity, e.rank, e.unique] for e in entries]
    sys.stdout.write(emit_rows(headers, rows, args.format))
    return 0


def _cmd_expr(args) -> int:
    table = _load(args.table)
    tree = analysis.reconstruct(table, args.n, policy="min_height")
    if args.format == "text":
        print(f"n {args.n}: ones {tree.ones}, height {tree.height}")
        print(f"  {infix(tree)}")
        print(f"  {postfix_emit(tree)}")
    else:
        sys.stdout.write(
            emit_rows(["n", "ones", "height", "infix", "postfix"],
                      [[args.n, tree.ones, tree.height, infix(tree), postfix_emit(tree)]],
                      args.format)
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intcomplexity",
        description="integer complexity tables and desk-scale analyses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build and persist a complexity table")
    p.add_argument("--algo", choices=("sieve", "dp"), default="sieve")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--ranks", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("query", help="complexity and rank of one value")
    p.add_argument("n", type=int)
    p.add_argument("--table", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("oracle", help="exhaustive shortest-expression search")
    p.add_argument("n", type=int)
    p.add_argument("--max-ones", type=int, default=None)
    p.add_argument("--all", action="store_true")
    _add_format(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("seq", help="derived sequences of a table")
    p.add_argument("--table", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("verify", help="check table facts; exit 1 on counterexamples")
    p.add_argument("kind", choices=_VERIFY_KINDS + ("all",))
    p.add_argument("--table", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("collapse", help="prime power collapse scan")
    p.add_argument("--table", required=True)
    p.add_argument("--primes-below", type=int, default=1000)
    _add_format(p)
    p.set_defaults(func=_cmd_collapse)

    p = sub.add_parser("chains", help="doubling chains behind least values")
    p.add_argument("--table", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_chains)

    p = sub.add_parser("firstop", help="forced first-subtraction scan")
    p.add_argument("--table", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_firstop)

    p = sub.add_parser("fit-e", help="least-squares growth of least values")
    p.add_argument("--table", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_fit_e)

    p = sub.add_parser("top-log", help="largest logarithmic complexities")
    p.add_argument("--table", required=True)
    p.add_argument("--count", type=int, default=16)
    _add_format(p)
    p.set_defaults(func=_cmd_top_log)

    p = sub.add_parser("expr", help="reconstruct a minimum-height shortest expression")
    p.add_argument("n", type=int)
    p.add_argument("--table", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_expr)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        return args.func(args)
    except (ValueError, storage.IcxError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
