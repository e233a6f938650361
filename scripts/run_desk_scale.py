#!/usr/bin/env python3
"""Build the desk-scale table and emit every derived report.

Builds a ranked table at the requested limit with ``build_sieve`` (the
block builder; about 1 s and 40 MB at the default 2M), or reuses one
already in the output directory, then writes the sequence tables,
verification reports, collapse/chain/first-operation scans, the
least-value fit, and the top logarithmic complexities into that
directory as CSV and JSON.

The table is loaded (or built) once, its ``SequenceSet`` is derived once
and shared by the seq, chains and fit-e reports, and every analysis runs
once; its CSV and JSON are emitted from that one result.  Each file is
byte-identical to what the matching ``intcomplexity`` subcommand prints
with ``--table`` and ``--format``.

    PYTHONPATH=src python3 scripts/run_desk_scale.py --limit 2000000 --outdir results
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from intcomplexity import analysis, cli, storage
from intcomplexity.sieve import build_sieve


def run(limit: int, outdir: str) -> int:
    os.makedirs(outdir, exist_ok=True)
    table_path = os.path.join(outdir, f"table-{limit}.icx")
    if os.path.exists(table_path):
        table = storage.load_table(table_path)
        if table.limit != limit or not table.has_ranks:
            table = None
    else:
        table = None
    if table is None:
        t0 = time.time()
        table = build_sieve(limit, with_ranks=True)
        storage.save(table, table_path)
        print(f"built ranked table to {limit} in {time.time() - t0:.1f}s -> {table_path}")
    else:
        print(f"reusing {table_path}")

    seq = analysis.derive_sequences(table)
    parser = cli.build_parser()
    rc = 0
    for name, cmd, compute, source in [
        ("sequences", ["seq"], cli.seq_rows, seq),
        ("verify", ["verify", "all"], cli.verify_reports, table),
        ("collapse", ["collapse", "--primes-below", "1000"], cli.collapse_rows, table),
        ("chains", ["chains"], cli.chains_rows, seq),
        ("firstop", ["firstop"], cli.firstop_rows, table),
        ("fit-e", ["fit-e"], cli.fit_e_rows, seq),
        ("top-log", ["top-log", "--count", "16"], cli.top_log_rows, table),
    ]:
        formats = ("json",) if name == "verify" else ("csv", "json")
        try:
            result = compute(source, parser.parse_args([*cmd, "--table", table_path]))
            if name == "verify":
                texts = {"json": "".join(cli.emit_report(r, "json") for r in result)}
                code = 0 if all(r.passed for r in result) else 1
            else:
                texts = {fmt: cli.emit_rows(*result, fmt) for fmt in formats}
                code = 0
        except cli.ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            texts, code = dict.fromkeys(formats, ""), 2
        for fmt in formats:
            out_path = os.path.join(outdir, f"{name}.{fmt}")
            with open(out_path, "w") as fh:
                fh.write(texts[fmt])
            rc = max(rc, code)
            print(f"wrote {out_path} (rc {code})")
    return rc


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--limit", type=int, default=2_000_000)
    ap.add_argument("--outdir", default="results")
    ns = ap.parse_args()
    sys.exit(run(ns.limit, ns.outdir))
