"""Command-line front door.

Subcommands: build, query, oracle, seq, verify, collapse, chains,
firstop, fit-e, top-log, expr.  Exit codes: 0 success (and
every checked fact holds in range), 1 a verification found
counterexamples, 2 usage or configuration error.

``_SUBCOMMANDS`` is the one table of subcommands, which ``parse_args``
(the parser of the subcommand run, or of all for ``--help``), ``main``,
``report`` and ``render`` read.

``build`` is one call to ``dp.build``, with its keywords as options;
``--resume`` continues an interrupted build from its checkpoint.  Every
table-reading subcommand takes one path in two steps: ``report`` runs its
analysis on a loaded table and returns headers and rows (for verify, the
reports), deriving the ``SequenceSet`` only for seq, chains and fit-e
and only when none is passed; ``render`` turns that result into the
exact text printed for a format, and the exit code.
``scripts/run_desk_scale.py`` calls ``report`` once per subcommand on
one loaded table and ``render`` once per format, so its files are what
the subcommands print.

``report`` imports ``analysis`` and hands it to the table reports' rows
functions, and ``oracle`` and ``expr`` import ``enumerator`` and ``expr``
where they run, so ``build`` and ``oracle`` load no analysis.
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections import namedtuple

from . import reporting, storage
from .dp import build
from .reporting import emit_report, emit_rows, fmt_real

# Old names of build, kept only because the benchmark's tracer spans them:
# cli.build_sieve and sieve.build_sieve (ranked builds) and cli.build_dp
# (the others).  All three are deleted with ROADMAP item 2.
build_sieve = build_dp = build

# failures reported as "error: ..." with exit code 2
ERRORS = (ValueError, storage.IcxError, OSError, RuntimeError)


def _cmd_build(args) -> int:
    table = (build_sieve if args.ranks else build_dp)(
        args.limit, ranks=args.ranks, checkpoint_every=args.checkpoint_every, out=args.out,
        resume=args.resume,
    )
    print(f"built table to n = {table.limit}{' with ranks' if args.ranks else ''}: {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    from .enumerator import oracle_complexity
    from .expr import infix, postfix_emit

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


def _record_rows(cls, recs):
    """Headers from the fields of a record (a named tuple), one row per record."""
    return list(cls._fields), [list(r) for r in recs]


def query_rows(analysis, table, args):
    """n's complexity, and its rank from the complexities, checked against
    the rank column of a ranked table."""
    n = args.n
    c = table.value(n)  # range check before any rank reconstruction
    r = analysis.Reconstructor(table).min_height(n)
    if table.has_ranks and table.rank_of(n) != r:
        raise ValueError(f"{n} has rank {table.rank_of(n)} in the table but {r} by its "
                         "complexities: table corrupt")
    return ["n", "complexity", "rank"], [[n, c, r]]


def seq_rows(analysis, seq, args):
    headers = ["sequence", "k", "value", "reliable", "limit"]
    rows: list[list] = []
    every = float("inf")  # every least value is reliable
    for name, values, reliable in (
        ("smallest", seq.smallest, every),
        ("largest", seq.largest, seq.reliable_largest_max),
        ("second_largest", seq.second_largest, seq.reliable_largest_max),
        ("rank_first", seq.rank_firsts or {}, every),
    ):
        for k in sorted(values):
            rows.append([name, k, values[k], k <= reliable, seq.limit])
    return headers, rows


# verify kind -> the analysis function that checks it, and its arguments
# after the table; the function is looked up on ``analysis`` at each call,
# so that a wrapper set there after import (the benchmark's tracer) runs
_VERIFY = {
    "pow2": ("check_products", ("pow2",)),
    "pow3": ("check_products", ("pow3",)),
    "pow235": ("check_products", ("pow235",)),
    "pow2plus1": ("check_pow2_plus1", ()),
    "prime-plus1": ("check_prime_plus1", ()),
    "mersenne": ("mersenne_table", ()),
    "defect-rank": ("check_defect_rank", ()),
}


def verify_reports(analysis, table, args) -> list[reporting.Report]:
    """The reports of one kind, or of all of them; a table without ranks
    leaves out defect-rank from all."""
    kinds = [args.kind]
    if args.kind == "all":
        kinds = [k for k in _VERIFY if table.has_ranks or k != "defect-rank"]
    return [getattr(analysis, name)(table, *extra) for name, extra in map(_VERIFY.get, kinds)]


def collapse_rows(analysis, table, args):
    return _record_rows(analysis.CollapseRecord, analysis.collapse_scan(table, args.primes_below))


def chains_rows(analysis, seq, args):
    recs = analysis.chain_scan(seq)
    headers = ["k", "end", "end_is_prime", "chain", "length",
               "half_prime", "third_prime", "quarter_prime"]
    rows = [[r.n, r.end, r.end_is_prime, "-".join(map(str, r.chain)), r.length,
             r.near_prime[1], r.near_prime[2], r.near_prime[3]] for r in recs]
    return headers, rows


def firstop_rows(analysis, table, args):
    return _record_rows(analysis.FirstOpRecord, analysis.first_operation_scan(table))


def fit_e_rows(analysis, seq, args):
    fit = analysis.fit_e_asymptote(seq)
    headers = ["k", "log3_value", "fitted", "residual", "slope", "intercept"]
    rows = [[k, fit.residuals[k] + fit.slope * k + fit.intercept,
             fit.slope * k + fit.intercept, fit.residuals[k], fit.slope, fit.intercept]
            for k in sorted(fit.residuals)]
    return headers, rows


def top_log_rows(analysis, table, args):
    return _record_rows(analysis.TopLogEntry, analysis.top_log_complexity(table, args.count))


def expr_rows(analysis, table, args):
    from .expr import infix, postfix_emit

    tree = analysis.reconstruct(table, args.n)
    return (["n", "ones", "height", "infix", "postfix"],
            [[args.n, tree.ones, tree.height, infix(tree), postfix_emit(tree)]])


def report(table, args, seq=None):
    """Headers and rows of a table-reading subcommand (for verify, its
    reports); ``seq`` is derived from the table if the subcommand reads
    one and none is passed.  Every rows function takes ``analysis`` first."""
    from . import analysis

    sub = _SUBCOMMANDS[args.command]
    if sub.reads_seq:
        return sub.rows(analysis, seq or analysis.derive_sequences(table), args)
    return sub.rows(analysis, table, args)


def _chains_text(table, rows):
    return [f"{label} prime for {sum(1 for row in rows if row[col])}/{len(rows)} reliable entries"
            for col, label in ((5, "(e-1)/2"), (6, "(e-2)/3"), (7, "(e-3)/4")) if rows]


def _fit_e_text(table, rows):
    # every row carries the slope and intercept; the fit spans k = first..last row
    return [f"slope {fmt_real(rows[0][4])}, intercept {fmt_real(rows[0][5])}, "
            f"range {rows[0][0]}..{rows[-1][0]}"]


def render(table, args, result, fmt: str) -> tuple[str, int]:
    """The text printed for ``report``'s result in a format, and the exit code."""
    if args.command == "verify":
        text = "".join(emit_report(r, fmt) for r in result)
        return text, 0 if all(r.passed for r in result) else 1
    place, lines = _SUBCOMMANDS[args.command].text if fmt == "text" else (None, None)
    extra = "".join(line + "\n" for line in lines(table, result[1])) if lines else ""
    body = "" if place == "replace" else emit_rows(*result, fmt)
    return (body + extra if place == "after" else extra + body), 0


def _cmd_table(args) -> int:
    table = storage.load(args.table)
    text, code = render(table, args, report(table, args), args.format)
    sys.stdout.write(text)
    return code


# A subcommand: its help, arguments and handler.  A table-reading one (run
# by _cmd_table) has its rows function, whether that reads the SequenceSet,
# and text-format lines that replace the table or go before or after it.
_Subcommand = namedtuple("_Subcommand", "help arguments handler rows reads_seq text",
                         defaults=(_cmd_table, None, False, (None, None)))

_N = ("n", {"type": int})
_TABLE = ("--table", {"required": True})
_FORMAT = ("--format", {"choices": reporting.FORMATS, "default": "text"})

# every subcommand, in --help order
_SUBCOMMANDS = {
    "build": _Subcommand("build and persist a complexity table", [
        # ignored, since one builder makes every table; accepted because the
        # benchmark still passes --algo dp, until ROADMAP item 2
        ("--algo", {"choices": ("sieve", "dp"), "help": argparse.SUPPRESS}),
        ("--limit", {"type": int, "required": True}), ("--ranks", {"action": "store_true"}),
        ("--out", {"required": True}), ("--checkpoint-every", {"type": int, "default": 0, "help": (
            "every K entries, save the finished prefix; each save rewrites it whole, so about"
            " limit^2/(2K) bytes are written in all (ROADMAP item 9 would append)")}),
        ("--resume", {"metavar": "PATH", "help": "continue a smaller table, such as a checkpoint"})],
        _cmd_build),
    "query": _Subcommand("complexity and rank of one value", [_N, _TABLE, _FORMAT],
                         rows=query_rows, text=("replace", lambda table, rows: [
                             f"complexity {rows[0][1]}, rank {rows[0][2]}"])),
    "oracle": _Subcommand("exhaustive shortest-expression search",
                          [_N, ("--max-ones", {"type": int, "default": None}),
                           ("--all", {"action": "store_true"}), _FORMAT], _cmd_oracle),
    "seq": _Subcommand("derived sequences of a table", [_TABLE, _FORMAT],
                       rows=seq_rows, reads_seq=True),
    "verify": _Subcommand("check table facts; exit 1 on counterexamples",
                          [("kind", {"choices": (*_VERIFY, "all")}), _TABLE,
                           ("--format", {"choices": ("text", "json"), "default": "text"})],
                          rows=verify_reports),
    "collapse": _Subcommand("prime power collapse scan",
                            [_TABLE, ("--primes-below", {"type": int, "default": 1000}), _FORMAT],
                            rows=collapse_rows),
    "chains": _Subcommand("doubling chains behind least values", [_TABLE, _FORMAT],
                          rows=chains_rows, reads_seq=True, text=("after", _chains_text)),
    "firstop": _Subcommand("forced first-subtraction scan", [_TABLE, _FORMAT],
                           rows=firstop_rows, text=("after", lambda table, rows: [
                               f"{len(rows)} forced-subtraction number(s) at limit {table.limit}"])),
    "fit-e": _Subcommand("least-squares growth of least values", [_TABLE, _FORMAT],
                         rows=fit_e_rows, reads_seq=True, text=("before", _fit_e_text)),
    "top-log": _Subcommand("largest logarithmic complexities",
                           [_TABLE, ("--count", {"type": int, "default": 16}), _FORMAT],
                           rows=top_log_rows),
    "expr": _Subcommand("reconstruct a minimum-height shortest expression", [_N, _TABLE, _FORMAT],
                        rows=expr_rows, text=("replace", lambda table, rows: [
                            f"n {rows[0][0]}: ones {rows[0][1]}, height {rows[0][2]}",
                            f"  {rows[0][3]}", f"  {rows[0][4]}"])),
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The parsed command line.  The parser holds only the subcommand that
    ``argv[0]`` names, or every subcommand when it names none (``--help``,
    no argument, an unknown name), so that usage lists them all."""
    parser = argparse.ArgumentParser(
        prog="intcomplexity",
        description="integer complexity tables and desk-scale analyses",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = [name for name in argv[:1] if name in _SUBCOMMANDS]
    for name in named or _SUBCOMMANDS:
        p = sub.add_parser(name, help=_SUBCOMMANDS[name].help)
        for flag, kwargs in _SUBCOMMANDS[name].arguments:
            p.add_argument(flag, **kwargs)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        return _SUBCOMMANDS[args.command].handler(args)
    except ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> int:
    """``main`` as a process of its own: the ``intcomplexity`` console script
    and ``python -m intcomplexity.cli``.

    The objects the imports made (about 12k before any subcommand runs,
    with Python 3.11 and its site-packages) live until exit, so freezing
    them spares them the full collection that interpreter shutdown would
    run over them: about 6 ms of a small build (medians of 30 on a 2-core
    machine: 67 against 73 ms at limit 1000).
    ``main`` itself leaves the collector alone, since tests and other
    programs call it in their own process.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
