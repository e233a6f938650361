#!/usr/bin/env python3
"""Build the desk-scale table and write every derived report.

Builds a ranked table at the requested limit with ``dp.build``, or
reuses the one already in the output directory (a file of an older
layout, or a damaged one, is rebuilt), then writes the sequence tables,
verification reports, collapse/chain/first-operation scans, the
least-value fit, and the top logarithmic complexities into that
directory as CSV and JSON.

Each report is one ``intcomplexity`` command line.  The table is loaded
(or built) and its ``SequenceSet`` derived once; each command's analysis
runs once, through ``cli.report``, and ``cli.render`` gives its text for
each format, so every file is what the command prints with ``--table``
and ``--format``.  A table that cannot be loaded or built ends the run
as it ends the CLI: ``error:`` on stderr and exit 2.

    PYTHONPATH=src python3 scripts/run_desk_scale.py --limit 2000000 --outdir results

At the paper's limit, ``--limit 477028439`` (the least number of rank
19), a 2-core machine builds the table in 14-21 s at 927 MB peak RSS
(``intcomplexity build --ranks``, three runs), and on the reused table
writes the report in 12-13 s at 0.93 GB, the 954 MB table file and one
block's buffers (three runs).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

from intcomplexity import analysis, cli, storage
from intcomplexity.dp import build

# file stem and command line of each report
REPORTS = [
    ("sequences", ["seq"]),
    ("verify", ["verify", "all"]),
    ("collapse", ["collapse", "--primes-below", "1000"]),
    ("chains", ["chains"]),
    ("firstop", ["firstop"]),
    ("fit-e", ["fit-e"]),
    ("top-log", ["top-log", "--count", "16"]),
]


def _table(limit: int, outdir: str, table_path: str):
    """The ranked table of the directory, built if it holds none to reuse."""
    os.makedirs(outdir, exist_ok=True)
    table = None
    if os.path.exists(table_path):
        try:
            table = storage.load(table_path)
        except storage.IcxError as exc:  # an older layout or a damaged file: rebuilt below
            print(f"not reusing {table_path}: {exc}")
    if table is None or table.limit != limit or not table.has_ranks:
        t0 = time.time()
        table = build(limit, ranks=True, out=table_path)
        print(f"built ranked table to {limit} in {time.time() - t0:.1f}s -> {table_path}")
    else:
        print(f"reusing {table_path}")
    return table


def run(limit: int, outdir: str) -> int:
    table_path = os.path.join(outdir, f"table-{limit}.icx")
    try:
        table = _table(limit, outdir, table_path)
    except cli.ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seq = analysis.derive_sequences(table)
    rc = 0
    for stem, argv in REPORTS:
        args = cli.parse_args([*argv, "--table", table_path])
        formats = ("json",) if stem == "verify" else ("csv", "json")
        try:
            result = cli.report(table, args, seq)
            texts = {fmt: cli.render(table, args, result, fmt) for fmt in formats}
        except cli.ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            texts = dict.fromkeys(formats, ("", 2))
        for fmt, (text, code) in texts.items():
            out_path = os.path.join(outdir, f"{stem}.{fmt}")
            with open(out_path, "w") as fh:
                fh.write(text)
            rc = max(rc, code)
            print(f"wrote {out_path} (rc {code})")
    return rc


if __name__ == "__main__":
    # what the imports made lives until exit: frozen, it is spared the full
    # collection that interpreter shutdown would run over it.  run() itself
    # leaves the collector alone, since tests call it in their own process.
    gc.freeze()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--limit", type=int, default=2_000_000)
    ap.add_argument("--outdir", default="results")
    ns = ap.parse_args()
    sys.exit(run(ns.limit, ns.outdir))
