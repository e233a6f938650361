"""Run one intcomplexity CLI or script invocation with a span around each layer call.

Usage (from the root of a checkout, with src on PYTHONPATH):

    python3 perfbench/tracer.py SPANS.json [--alloc] cli ARGS...
    python3 perfbench/tracer.py SPANS.json [--alloc] script PATH ARGS...

Each public function of a layer is replaced where its caller looks it up
(``intcomplexity.cli.build_sieve``, ``intcomplexity.analysis.primes_up_to``,
...), so the program itself is not edited.  A span records its name, the
span that caused it, its start and end, and counts taken outside the
timed interval.  Spans stay in memory and are written to SPANS.json when
the invocation ends.  With ``--alloc`` the builders also run under
tracemalloc, which slows pure-Python code about tenfold, so their times
in that mode are not used.
"""

from __future__ import annotations

import functools
import json
import os
import runpy
import sys
import time
import tracemalloc

import numpy as np


class Tracer:
    def __init__(self, alloc: bool):
        self.alloc = alloc
        self.spans: list[list] = []  # [name, parent index or None, start, end, counts]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def wrap(self, fn, name, before=None, after=None, alloc=False):
        """Span around fn; before(args) and after(args, result) return counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = dict(before(args)) if before else {}
            rec = [name, self.stack[-1] if self.stack else None, 0.0, 0.0, counts]
            self.spans.append(rec)
            self.stack.append(len(self.spans) - 1)
            measure_alloc = alloc and self.alloc
            if measure_alloc:
                tracemalloc.start()
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                self.stack.pop()
                if measure_alloc:
                    counts["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if after:
                counts.update(after(args, result))
            return result

        return traced

    def count(self, fn, name):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def _size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _candidates(args):
    """Numbers first_operation_scan classifies one by one: f(n) != f(n-1) + 1."""
    c = np.frombuffer(args[0].complexity, dtype=np.uint8).astype(np.int16)
    return {"candidates": int(np.count_nonzero(c[2:] != c[1:-1] + 1))}


def install(tr: Tracer) -> None:
    from intcomplexity import analysis, cli, dp, sieve, storage

    def patch(owners, attr, name, **kw):
        wrapped = tr.wrap(getattr(owners[0], attr), name, **kw)
        for owner in owners:
            setattr(owner, attr, wrapped)

    patch([cli], "main", "cli.main")
    patch([cli, sieve], "build_sieve", "sieve.build_sieve", alloc=True)
    patch([cli], "build_dp", "dp.build_dp", alloc=True)
    patch([storage], "save", "storage.save", after=lambda a, _: {"bytes": _size(a[1])})
    patch([storage], "save_checkpoint", "storage.save_checkpoint",
          after=lambda a, _: {"bytes": _size(a[0])})
    patch([storage], "load", "storage.load", before=lambda a: {"bytes": _size(a[0])})
    patch([analysis], "derive_sequences", "analysis.derive_sequences")
    for attr in ("check_products", "check_pow2_plus1", "check_prime_plus1",
                 "check_defect_rank", "mersenne_table"):
        patch([analysis], attr, "analysis.verify")
    for attr in ("collapse_scan", "chain_scan", "fit_e_asymptote", "top_log_complexity"):
        patch([analysis], attr, f"analysis.{attr}")
    patch([analysis], "first_operation_scan", "analysis.first_operation_scan",
          before=_candidates, after=lambda a, res: {"records": len(res)})
    patch([analysis, dp], "primes_up_to", "primality.primes_up_to")
    analysis.is_prime = tr.count(analysis.is_prime, "primality.is_prime")
    patch([cli], "emit_rows", "reporting.emit", after=lambda a, res: {"bytes": len(res)})
    patch([cli], "emit_report", "reporting.emit", after=lambda a, res: {"bytes": len(res)})


def main(argv: list[str]) -> int:
    spans_path, rest = argv[0], argv[1:]
    alloc = rest[:1] == ["--alloc"]
    if alloc:
        rest = rest[1:]
    mode, rest = rest[0], rest[1:]
    tr = Tracer(alloc)
    install(tr)
    from intcomplexity import cli

    try:
        if mode == "cli":
            return cli.main(rest)
        sys.argv = rest
        try:
            runpy.run_path(rest[0], run_name="__main__")
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        return 0
    finally:
        tr.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
