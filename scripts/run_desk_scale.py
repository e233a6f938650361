#!/usr/bin/env python3
"""Build the desk-scale table and emit every derived report.

Builds a ranked table at the requested limit with ``build_sieve`` (the
block builder; about 1 s and 40 MB at the default 2M), or reuses one
already in the output directory, then writes the sequence tables,
verification reports, collapse/chain/first-operation scans, the
least-value fit, and the top logarithmic complexities into that
directory as CSV and JSON.

    PYTHONPATH=src python3 scripts/run_desk_scale.py --limit 2000000 --outdir results
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from intcomplexity import analysis, storage
from intcomplexity.cli import main as cli_main
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

    rc = 0
    for cmd, name in [
        (["seq"], "sequences"),
        (["verify", "all"], "verify"),
        (["collapse", "--primes-below", "1000"], "collapse"),
        (["chains"], "chains"),
        (["firstop"], "firstop"),
        (["fit-e"], "fit-e"),
        (["top-log", "--count", "16"], "top-log"),
    ]:
        for fmt in ("csv", "json"):
            if cmd[0] == "verify" and fmt == "csv":
                continue
            out_path = os.path.join(outdir, f"{name}.{fmt}")
            with open(out_path, "w") as fh:
                old = sys.stdout
                sys.stdout = fh
                try:
                    code = cli_main(cmd + ["--table", table_path, "--format", fmt])
                finally:
                    sys.stdout = old
            rc = max(rc, code)
            print(f"wrote {out_path} (rc {code})")
    return rc


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--limit", type=int, default=2_000_000)
    ap.add_argument("--outdir", default="results")
    ns = ap.parse_args()
    sys.exit(run(ns.limit, ns.outdir))
