"""Command-line front door.

Subcommands: build, resume, query, oracle, seq, verify, collapse,
chains, firstop, fit-e, top-log, expr.  Exit codes: 0 success (and
every checked fact holds in range), 1 a verification found
counterexamples, 2 usage or configuration error.

``build`` and ``resume`` are one call each to ``dp.build``.  Each
table-reading subcommand is a function from the table (for seq,
chains and fit-e, from its ``SequenceSet``) and the parsed arguments to
headers and rows (for verify, to reports), and a ``_cmd_*`` wrapper that
loads the table and emits them; ``scripts/run_desk_scale.py`` calls the
functions on one loaded table.
"""

from __future__ import annotations

import argparse
import sys

from . import analysis, reporting, storage
from .dp import build
from .enumerator import oracle_complexity
from .expr import infix, postfix_emit
from .reporting import emit_report, emit_rows, fmt_real

# Old names of build, kept only because the benchmark's tracer spans them:
# cli.build_sieve and sieve.build_sieve (ranked builds) and cli.build_dp
# (the others).  All three are deleted with ROADMAP item 1.
build_sieve = build_dp = build


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=reporting.FORMATS, default="text")


def _load(path: str):
    return storage.load_table(path)


# failures reported as "error: ..." with exit code 2
ERRORS = (ValueError, storage.IcxError, OSError, RuntimeError)


def _cmd_build(args) -> int:
    table = (build_sieve if args.ranks else build_dp)(
        args.limit, ranks=args.ranks, checkpoint_every=args.checkpoint_every, out=args.out
    )
    print(f"built table to n = {table.limit}{' with ranks' if args.ranks else ''}: {args.out}")
    return 0


def _cmd_resume(args) -> int:
    table = build_dp(args.limit, checkpoint_every=args.checkpoint_every, out=args.out,
                     resume=args.checkpoint)
    print(f"resumed table to n = {table.limit}: {args.out}")
    return 0


def query_rows(table, args):
    n = args.n
    c = table.value(n)
    if table.has_ranks:
        r = table.rank_of(n)
    else:
        r = analysis.Reconstructor(table).min_height(n)
    return ["n", "complexity", "rank"], [[n, c, r]]


def _cmd_query(args) -> int:
    headers, rows = query_rows(_load(args.table), args)
    if args.format == "text":
        _, c, r = rows[0]
        print(f"complexity {c}, rank {r}")
    else:
        sys.stdout.write(emit_rows(headers, rows, args.format))
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


def seq_rows(seq: analysis.SequenceSet, args):
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
    return headers, rows


def _cmd_seq(args) -> int:
    headers, rows = seq_rows(analysis.derive_sequences(_load(args.table)), args)
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
        report = analysis.mersenne_table(table)
        report.details = {k: v for k, v in report.details.items() if k != "rows"}
        return report
    if kind == "defect-rank":
        return analysis.check_defect_rank(table)
    raise ValueError(f"unknown verification {kind!r}")


def verify_reports(table, args) -> list[reporting.Report]:
    kinds = list(_VERIFY_KINDS) if args.kind == "all" else [args.kind]
    if not table.has_ranks and "defect-rank" in kinds and args.kind == "all":
        kinds.remove("defect-rank")
    return [_run_verify(table, kind) for kind in kinds]


def _cmd_verify(args) -> int:
    reports = verify_reports(_load(args.table), args)
    fmt = "json" if args.format == "json" else "text"
    for report in reports:
        sys.stdout.write(emit_report(report, fmt))
    return 0 if all(report.passed for report in reports) else 1


def collapse_rows(table, args):
    recs = analysis.collapse_scan(table, args.primes_below)
    headers = ["p", "collapses_at", "checked_up_to", "complexity", "rank", "log_complexity"]
    rows = [[r.p, r.collapses_at, r.checked_up_to, r.complexity, r.rank, r.log_complexity]
            for r in recs]
    return headers, rows


def _cmd_collapse(args) -> int:
    headers, rows = collapse_rows(_load(args.table), args)
    sys.stdout.write(emit_rows(headers, rows, args.format))
    return 0


def chains_rows(seq: analysis.SequenceSet, args):
    recs = analysis.chain_scan(seq)
    headers = ["k", "end", "end_is_prime", "chain", "length",
               "half_prime", "third_prime", "quarter_prime"]
    rows = [[r.n, r.end, r.end_is_prime, "-".join(map(str, r.chain)), r.length,
             r.near_prime[1], r.near_prime[2], r.near_prime[3]] for r in recs]
    return headers, rows


def _cmd_chains(args) -> int:
    seq = analysis.derive_sequences(_load(args.table), include_rank_sequence=False)
    headers, rows = chains_rows(seq, args)
    sys.stdout.write(emit_rows(headers, rows, args.format))
    if args.format == "text" and rows:
        for col, label in ((5, "(e-1)/2"), (6, "(e-2)/3"), (7, "(e-3)/4")):
            hits = sum(1 for row in rows if row[col])
            print(f"{label} prime for {hits}/{len(rows)} reliable entries")
    return 0


def firstop_rows(table, args):
    recs = analysis.first_operation_scan(table)
    headers = ["n", "has_product_decomposition", "minimal_addend", "classification"]
    rows = [[r.n, r.has_product_decomposition, r.minimal_addend, r.classification]
            for r in recs]
    return headers, rows


def _cmd_firstop(args) -> int:
    table = _load(args.table)
    headers, rows = firstop_rows(table, args)
    sys.stdout.write(emit_rows(headers, rows, args.format))
    if args.format == "text":
        print(f"{len(rows)} forced-subtraction number(s) at limit {table.limit}")
    return 0


def fit_e_rows(seq: analysis.SequenceSet, args):
    fit = analysis.fit_e_asymptote(seq)
    headers = ["k", "log3_value", "fitted", "residual", "slope", "intercept"]
    rows = [[k, fit.residuals[k] + fit.slope * k + fit.intercept,
             fit.slope * k + fit.intercept, fit.residuals[k], fit.slope, fit.intercept]
            for k in sorted(fit.residuals)]
    return headers, rows


def _cmd_fit_e(args) -> int:
    seq = analysis.derive_sequences(_load(args.table), include_rank_sequence=False)
    headers, rows = fit_e_rows(seq, args)
    if args.format == "text":
        # every row carries the slope and intercept; the fit spans k = first..last row
        slope, intercept = rows[0][4], rows[0][5]
        print(f"slope {fmt_real(slope)}, intercept {fmt_real(intercept)}, "
              f"range {rows[0][0]}..{rows[-1][0]}")
    sys.stdout.write(emit_rows(headers, rows, args.format))
    return 0


def top_log_rows(table, args):
    entries = analysis.top_log_complexity(table, args.count)
    headers = ["n", "complexity", "log_complexity", "rank", "unique"]
    rows = [[e.n, e.complexity, e.log_complexity, e.rank, e.unique] for e in entries]
    return headers, rows


def _cmd_top_log(args) -> int:
    headers, rows = top_log_rows(_load(args.table), args)
    sys.stdout.write(emit_rows(headers, rows, args.format))
    return 0


def expr_rows(table, args):
    tree = analysis.reconstruct(table, args.n, policy="min_height")
    return (["n", "ones", "height", "infix", "postfix"],
            [[args.n, tree.ones, tree.height, infix(tree), postfix_emit(tree)]])


def _cmd_expr(args) -> int:
    headers, rows = expr_rows(_load(args.table), args)
    if args.format == "text":
        n, ones, height, infix_text, postfix_text = rows[0]
        print(f"n {n}: ones {ones}, height {height}")
        print(f"  {infix_text}")
        print(f"  {postfix_text}")
    else:
        sys.stdout.write(emit_rows(headers, rows, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intcomplexity",
        description="integer complexity tables and desk-scale analyses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build and persist a complexity table")
    # ignored, since one builder makes every table; accepted because the
    # benchmark still passes --algo dp, until ROADMAP item 1
    p.add_argument("--algo", choices=("sieve", "dp"), help=argparse.SUPPRESS)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--ranks", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("resume", help="finish an interrupted build from its checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.set_defaults(func=_cmd_resume)

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
    except ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
