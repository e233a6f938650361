#!/usr/bin/env python3
"""Benchmark of the intcomplexity CLI and the desk-scale report script.

Run from the root of a checkout:

    python3 perfbench/run.py --workload build-ranked --seed 1 --seconds 35 --trace 0

Each operation is one invocation of ``python3 -m intcomplexity.cli`` or
``scripts/run_desk_scale.py`` in a child process, the way a user runs
them, and is repeated until ``--seconds`` have passed.  After each
operation, outside the timed region, its outputs are checked against
published values and independent computations (``checks.py``); an
operation fails if it exits nonzero or fails a check.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics (from ``tracer.py`` spans) with ``--trace 1``.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
REQUIRED = ("src/intcomplexity/cli.py", "scripts/run_desk_scale.py", "tests/golden.py")
MIN_OPS = 3
SETUP_REPEATS = 3
OP_TIMEOUT_S = 150
BELLMAN_SAMPLE = 256


@dataclass(frozen=True)
class Workload:
    limit: int  # N, the table size of one operation and of each set-up build
    checkpointed: bool = False  # dp builds with 10 checkpoints, else ranked sieve builds
    report: bool = False  # operations run the desk report on the set-up table

    def build_args(self, out: Path) -> list[str]:
        args = ["build", "--limit", str(self.limit), "--out", str(out)]
        if self.checkpointed:
            return args + ["--algo", "dp", "--checkpoint-every", str(self.limit // 10)]
        return args + ["--ranks"]


WORKLOADS = {
    # the ranked table the paper's rank results need: all sieve plus one save
    "build-ranked": Workload(300_000),
    # the sequential low-memory build with periodic checkpoints: dp plus save_checkpoint
    "build-checkpointed": Workload(100_000, checkpointed=True),
    # every analysis and report over the ranked table that set-up builds
    "desk-report": Workload(150_000, report=True),
}

# (metric, span name, field, unit); fields: s = inclusive seconds, self_s =
# seconds less the time child spans cover, calls, or a count a span recorded
PER_LAYER = [
    ("sieve.build_sieve.s", "sieve.build_sieve", "s", "s"),
    ("sieve.build_sieve.peak_alloc_mb", "sieve.build_sieve", "peak_alloc_mb", "MB"),
    ("dp.build_dp.self_s", "dp.build_dp", "self_s", "s"),
    ("dp.build_dp.peak_alloc_mb", "dp.build_dp", "peak_alloc_mb", "MB"),
    ("storage.save.s", "storage.save", "s", "s"),
    ("storage.save.bytes", "storage.save", "bytes", "B"),
    ("storage.save_checkpoint.s", "storage.save_checkpoint", "s", "s"),
    ("storage.save_checkpoint.calls", "storage.save_checkpoint", "calls", "count"),
    ("storage.save_checkpoint.bytes", "storage.save_checkpoint", "bytes", "B"),
    ("storage.load.s", "storage.load", "s", "s"),
    ("storage.load.calls", "storage.load", "calls", "count"),
    ("storage.load.bytes", "storage.load", "bytes", "B"),
    ("analysis.derive_sequences.s", "analysis.derive_sequences", "s", "s"),
    ("analysis.derive_sequences.calls", "analysis.derive_sequences", "calls", "count"),
    ("analysis.verify.s", "analysis.verify", "s", "s"),
    ("analysis.collapse_scan.s", "analysis.collapse_scan", "s", "s"),
    ("analysis.chain_scan.s", "analysis.chain_scan", "s", "s"),
    ("analysis.fit_e_asymptote.s", "analysis.fit_e_asymptote", "s", "s"),
    ("analysis.top_log_complexity.s", "analysis.top_log_complexity", "s", "s"),
    ("analysis.first_operation_scan.s", "analysis.first_operation_scan", "s", "s"),
    ("analysis.first_operation_scan.calls", "analysis.first_operation_scan", "calls", "count"),
    ("analysis.first_operation_scan.candidates", "analysis.first_operation_scan", "candidates", "count"),
    ("analysis.first_operation_scan.records", "analysis.first_operation_scan", "records", "count"),
    ("primality.primes_up_to.s", "primality.primes_up_to", "s", "s"),
    ("primality.is_prime.calls", "primality.is_prime", "calls", "count"),
    ("reporting.emit.s", "reporting.emit", "s", "s"),
    ("reporting.emit.bytes", "reporting.emit", "bytes", "char"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
    ("cli.main.calls", "cli.main", "calls", "count"),
    ("traced.op_s", None, "op_s", "s"),
]


@dataclass
class Op:
    wall_s: float
    rss_mb: float
    ok: bool


def run_child(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB and exit code of one child process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Bench:
    def __init__(self, wl: Workload, seed: int, trace: bool, work: Path):
        self.wl = wl
        self.trace = trace
        self.work = work
        self.golden = checks.load_golden(ROOT)
        rng = random.Random(seed)
        self.sample = sorted(rng.sample(range(2, self.wl.limit), BELLMAN_SAMPLE)) + [self.wl.limit]
        self.ops: list[Op] = []
        self.layer_rows: list[dict] = []
        self.seq = 0

    def argv(self, kind: str, args: list[str], spans: Path | None, alloc: bool = False) -> list[str]:
        if spans is not None:
            flag = ["--alloc"] if alloc else []
            return [sys.executable, str(HERE / "tracer.py"), str(spans), *flag, kind, *args]
        if kind == "cli":
            return [sys.executable, "-m", "intcomplexity.cli", *args]
        return [sys.executable, *args]

    def load(self, path: Path):
        from intcomplexity import storage

        return storage.load_table(str(path))

    def check_table(self, path: Path) -> list[str]:
        from intcomplexity.storage import IcxError

        try:
            tbl = self.load(path)
        except (OSError, ValueError, IcxError) as exc:
            return [f"load {path.name}: {type(exc).__name__}: {exc}"]
        return checks.table(tbl, self.wl.limit, not self.wl.checkpointed, self.sample, self.golden)

    # -- set-up ---------------------------------------------------------

    def setup(self) -> float:
        """Build the workload's table several times, untimed by the operations
        (a warm-up, and for desk-report the table it reads); median seconds."""
        times = []
        out = self.work / f"table-{self.wl.limit}.icx"
        for _ in range(SETUP_REPEATS):
            wall, _, rc = run_child(self.argv("cli", self.wl.build_args(out), None),
                                    self.work / "setup.log")
            problems = self.check_table(out)
            if rc != 0 or problems:
                raise RuntimeError(f"set-up build failed (exit {rc}): {problems[:3]}")
            times.append(wall)
        if self.wl.report:
            tbl = self.load(out)
            self.f = np.frombuffer(tbl.complexity, dtype=np.uint8).astype(np.int32)
            self.r = np.frombuffer(tbl.rank, dtype=np.uint8).astype(np.int32)
            self.table_path = out
        return statistics.median(times)

    # -- operations -----------------------------------------------------

    def op(self, spans: Path | None = None, alloc: bool = False) -> Op:
        self.seq += 1
        wl, log = self.wl, self.work / "op.log"
        if wl.report:
            outdir = self.work / f"report-{self.seq}"
            outdir.mkdir()
            shutil.copyfile(self.table_path, outdir / self.table_path.name)
            args = ["scripts/run_desk_scale.py", "--limit", str(wl.limit), "--outdir", str(outdir)]
            wall, rss, rc = run_child(self.argv("script", args, spans, alloc), log)
            problems = checks.desk_report(outdir, self.f, self.r, self.golden)
            shutil.rmtree(outdir)
        else:
            out = self.work / f"built-{self.seq}.icx"
            wall, rss, rc = run_child(self.argv("cli", wl.build_args(out), spans, alloc), log)
            problems = self.check_table(out)
            out.unlink(missing_ok=True)
        if rc != 0:
            problems.insert(0, f"exit code {rc}: {log.read_text()[-500:]}")
        if problems:
            print(f"operation {self.seq} failed: " + "; ".join(problems[:5]), file=sys.stderr)
        result = Op(wall, rss, not problems)
        self.ops.append(result)
        return result

    def traced_op(self) -> None:
        spans = self.work / f"spans-{self.seq + 1}.json"
        op = self.op(spans)
        if spans.exists():
            self.layer_rows.append(layer_values(json.loads(spans.read_text()), op.wall_s))

    def alloc_op(self) -> dict:
        spans = self.work / f"alloc-{self.seq + 1}.json"
        self.op(spans, alloc=True)
        peaks = defaultdict(float)
        if spans.exists():
            for name, _, _, _, counts in json.loads(spans.read_text())["spans"]:
                peaks[name] = max(peaks[name], counts.get("peak_alloc", 0) / 2**20)
        return peaks

    def measure(self, seconds: float) -> None:
        """Whole operations until the next one would end past ``seconds``."""
        step = self.traced_op if self.trace else self.op
        start, longest = time.perf_counter(), 0.0
        while True:
            t0 = time.perf_counter()
            step()
            longest = max(longest, time.perf_counter() - t0)
            if len(self.ops) >= MIN_OPS and time.perf_counter() - start + longest > seconds:
                return

    def run(self, seconds: float) -> dict:
        setup_s = self.setup()
        self.measure(seconds)
        ok = [op for op in self.ops if op.ok] or self.ops
        if self.trace:
            metrics = {}
            peaks = {} if self.wl.report else self.alloc_op()
            for metric, span, field, unit in PER_LAYER:
                if field == "peak_alloc_mb":
                    value = peaks.get(span, 0.0)
                else:
                    value = statistics.median(row.get((span, field), 0) for row in self.layer_rows)
                value = float(value) if unit in ("s", "MB") else int(value)
                metrics[metric] = {"value": value, "unit": unit}
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "entries_per_s": {
                    "value": self.wl.limit * len(ok) / sum(op.wall_s for op in ok),
                    "unit": "1/s",
                },
                "peak_rss_mb": {"value": statistics.median(op.rss_mb for op in ok), "unit": "MB"},
            }
        # every operation whose output fails a check is counted in "failed",
        # and a set-up build that fails its checks ends the run with exit 1
        return {
            "correct": True,
            "attempted": len(self.ops),
            "failed": sum(not op.ok for op in self.ops),
            "metrics": metrics,
        }


def layer_values(doc: dict, op_s: float) -> dict:
    """(span name, field) -> value for one traced invocation."""
    spans = doc["spans"]
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[1] is not None:
            children[span[1]].append(i)
    out = defaultdict(float)
    for i, (name, _, t0, t1, counts) in enumerate(spans):
        covered, reach = 0.0, t0
        for c0, c1 in sorted((spans[j][2], spans[j][3]) for j in children[i]):
            covered += max(0.0, c1 - max(c0, reach))
            reach = max(reach, c1)
        out[(name, "s")] += t1 - t0
        out[(name, "self_s")] += t1 - t0 - covered
        out[(name, "calls")] += 1
        for key, value in counts.items():
            out[(name, key)] += value
    for name, calls in doc["counts"].items():
        out[(name, "calls")] += calls
    out[(None, "op_s")] = op_s
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found; run from the root of an "
              "intcomplexity checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = Bench(WORKLOADS[args.workload], args.seed, bool(args.trace), work).run(args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
