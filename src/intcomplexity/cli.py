"""Command-line front door.

Subcommands: build, query, oracle, seq, verify, collapse, chains,
firstop, fit-e, top-log, expr.  Exit codes: 0 success (and
every checked fact holds in range), 1 a verification found
counterexamples, 2 usage or configuration error.

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

Subcommands import the modules they analyse with (``analysis``,
``enumerator``, ``expr``) on first use, so ``build`` loads only the
builder and the table format.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import sys
from typing import TYPE_CHECKING

from . import reporting, storage
from .dp import build
from .reporting import emit_report, emit_rows, fmt_real

if TYPE_CHECKING:
    from . import analysis

# Old names of build, kept only because the benchmark's tracer spans them:
# cli.build_sieve and sieve.build_sieve (ranked builds) and cli.build_dp
# (the others).  All three are deleted with ROADMAP item 1.
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
    """Headers from the fields of a record dataclass, one row per record."""
    headers = [f.name for f in dataclasses.fields(cls)]
    return headers, [[getattr(r, h) for h in headers] for r in recs]


def query_rows(table, args):
    n = args.n
    c = table.value(n)  # range check before any rank reconstruction
    if table.has_ranks:
        r = table.rank_of(n)
    else:
        from . import analysis

        r = analysis.Reconstructor(table).min_height(n)
    return ["n", "complexity", "rank"], [[n, c, r]]


def seq_rows(seq: analysis.SequenceSet, args):
    headers = ["sequence", "k", "value", "reliable", "limit"]
    rows: list[list] = []
    for name, values, reliable in (
        ("smallest", seq.smallest, seq.reliable_smallest_max),
        ("largest", seq.largest, seq.reliable_largest_max),
        ("second_largest", seq.second_largest, seq.reliable_largest_max),
        ("rank_first", seq.rank_firsts or {}, seq.reliable_rank_max or 0),
    ):
        for k in sorted(values):
            rows.append([name, k, values[k], k <= reliable, seq.limit])
    return headers, rows


_VERIFY_KINDS = ("pow2", "pow3", "pow235", "pow2plus1", "prime-plus1", "mersenne", "defect-rank")


def _run_verify(table, kind: str) -> reporting.Report:
    from . import analysis

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


def verify_reports(table, args) -> list[reporting.Report]:
    kinds = list(_VERIFY_KINDS) if args.kind == "all" else [args.kind]
    if not table.has_ranks and args.kind == "all":
        kinds.remove("defect-rank")
    return [_run_verify(table, kind) for kind in kinds]


def collapse_rows(table, args):
    from . import analysis

    return _record_rows(analysis.CollapseRecord, analysis.collapse_scan(table, args.primes_below))


def chains_rows(seq: analysis.SequenceSet, args):
    from . import analysis

    recs = analysis.chain_scan(seq)
    headers = ["k", "end", "end_is_prime", "chain", "length",
               "half_prime", "third_prime", "quarter_prime"]
    rows = [[r.n, r.end, r.end_is_prime, "-".join(map(str, r.chain)), r.length,
             r.near_prime[1], r.near_prime[2], r.near_prime[3]] for r in recs]
    return headers, rows


def firstop_rows(table, args):
    from . import analysis

    return _record_rows(analysis.FirstOpRecord, analysis.first_operation_scan(table))


def fit_e_rows(seq: analysis.SequenceSet, args):
    from . import analysis

    fit = analysis.fit_e_asymptote(seq)
    headers = ["k", "log3_value", "fitted", "residual", "slope", "intercept"]
    rows = [[k, fit.residuals[k] + fit.slope * k + fit.intercept,
             fit.slope * k + fit.intercept, fit.residuals[k], fit.slope, fit.intercept]
            for k in sorted(fit.residuals)]
    return headers, rows


def top_log_rows(table, args):
    from . import analysis

    return _record_rows(analysis.TopLogEntry, analysis.top_log_complexity(table, args.count))


def expr_rows(table, args):
    from . import analysis
    from .expr import infix, postfix_emit

    tree = analysis.reconstruct(table, args.n)
    return (["n", "ones", "height", "infix", "postfix"],
            [[args.n, tree.ones, tree.height, infix(tree), postfix_emit(tree)]])


# subcommand -> its rows function, and whether that reads the SequenceSet
_ROWS = {
    "query": (query_rows, False),
    "seq": (seq_rows, True),
    "verify": (verify_reports, False),
    "collapse": (collapse_rows, False),
    "chains": (chains_rows, True),
    "firstop": (firstop_rows, False),
    "fit-e": (fit_e_rows, True),
    "top-log": (top_log_rows, False),
    "expr": (expr_rows, False),
}


def report(table, args, seq: analysis.SequenceSet | None = None):
    """Headers and rows of a table-reading subcommand (for verify, its
    reports); ``seq`` is derived from the table if the subcommand reads
    one and none is passed."""
    rows, reads_seq = _ROWS[args.command]
    if reads_seq:
        from . import analysis

        return rows(seq or analysis.derive_sequences(table), args)
    return rows(table, args)


def _chains_text(table, rows):
    return [f"{label} prime for {sum(1 for row in rows if row[col])}/{len(rows)} reliable entries"
            for col, label in ((5, "(e-1)/2"), (6, "(e-2)/3"), (7, "(e-3)/4")) if rows]


def _fit_e_text(table, rows):
    # every row carries the slope and intercept; the fit spans k = first..last row
    return [f"slope {fmt_real(rows[0][4])}, intercept {fmt_real(rows[0][5])}, "
            f"range {rows[0][0]}..{rows[-1][0]}"]


# text format only: lines that replace the table, or go before or after it
_TEXT = {
    "query": ("replace", lambda table, rows: [f"complexity {rows[0][1]}, rank {rows[0][2]}"]),
    "expr": ("replace", lambda table, rows: [
        f"n {rows[0][0]}: ones {rows[0][1]}, height {rows[0][2]}",
        f"  {rows[0][3]}", f"  {rows[0][4]}"]),
    "chains": ("after", _chains_text),
    "firstop": ("after", lambda table, rows: [
        f"{len(rows)} forced-subtraction number(s) at limit {table.limit}"]),
    "fit-e": ("before", _fit_e_text),
}


def render(table, args, result, fmt: str) -> tuple[str, int]:
    """The text printed for ``report``'s result in a format, and the exit code."""
    if args.command == "verify":
        text = "".join(emit_report(r, fmt) for r in result)
        return text, 0 if all(r.passed for r in result) else 1
    place, lines = _TEXT.get(args.command, (None, None)) if fmt == "text" else (None, None)
    extra = "".join(line + "\n" for line in lines(table, result[1])) if lines else ""
    body = "" if place == "replace" else emit_rows(*result, fmt)
    return (body + extra if place == "after" else extra + body), 0


def _cmd_table(args) -> int:
    table = storage.load(args.table)
    text, code = render(table, args, report(table, args), args.format)
    sys.stdout.write(text)
    return code


_N = ("n", {"type": int})
_TABLE = ("--table", {"required": True})
_FORMAT = ("--format", {"choices": reporting.FORMATS, "default": "text"})

# name, help and arguments of every subcommand, in --help order
_SUBCOMMANDS = [
    ("build", "build and persist a complexity table", [
        # ignored, since one builder makes every table; accepted because the
        # benchmark still passes --algo dp, until ROADMAP item 1
        ("--algo", {"choices": ("sieve", "dp"), "help": argparse.SUPPRESS}),
        ("--limit", {"type": int, "required": True}), ("--ranks", {"action": "store_true"}),
        ("--out", {"required": True}), ("--checkpoint-every", {"type": int, "default": 0}),
        ("--resume", {"metavar": "PATH", "help": "continue a smaller table, such as a checkpoint"})]),
    ("query", "complexity and rank of one value", [_N, _TABLE, _FORMAT]),
    ("oracle", "exhaustive shortest-expression search",
     [_N, ("--max-ones", {"type": int, "default": None}), ("--all", {"action": "store_true"}),
      _FORMAT]),
    ("seq", "derived sequences of a table", [_TABLE, _FORMAT]),
    ("verify", "check table facts; exit 1 on counterexamples",
     [("kind", {"choices": _VERIFY_KINDS + ("all",)}), _TABLE,
      ("--format", {"choices": ("text", "json"), "default": "text"})]),
    ("collapse", "prime power collapse scan",
     [_TABLE, ("--primes-below", {"type": int, "default": 1000}), _FORMAT]),
    ("chains", "doubling chains behind least values", [_TABLE, _FORMAT]),
    ("firstop", "forced first-subtraction scan", [_TABLE, _FORMAT]),
    ("fit-e", "least-squares growth of least values", [_TABLE, _FORMAT]),
    ("top-log", "largest logarithmic complexities",
     [_TABLE, ("--count", {"type": int, "default": 16}), _FORMAT]),
    ("expr", "reconstruct a minimum-height shortest expression", [_N, _TABLE, _FORMAT]),
]
_COMMANDS = {"build": _cmd_build, "oracle": _cmd_oracle}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intcomplexity",
        description="integer complexity tables and desk-scale analyses",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, arguments in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=_COMMANDS.get(name, _cmd_table))
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


def entry() -> int:
    """``main`` as a process of its own: the ``intcomplexity`` console script
    and ``python -m intcomplexity.cli``.

    The objects the imports made (about 13k for ``build``, 21k once a
    report has imported numpy) live until exit, so freezing them spares
    them the full collection that interpreter shutdown would run over
    them: about 10 ms of a small build (medians of 30 on a 2-core machine:
    94 against 106 ms at limit 1000).
    ``main`` itself leaves the collector alone, since tests and other
    programs call it in their own process.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
